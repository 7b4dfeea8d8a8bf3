package rhash_test

import (
	"strings"
	"testing"

	"repro/internal/pmem"
	"repro/internal/rbst"
	"repro/internal/recovery"
	"repro/internal/rhash"
	"repro/internal/rlist"
)

// TestAttachRejectsGarbageRoots is the shared table test for the attach
// paths of the three header-rooted set structures, rhash both inline and
// on a 3-worker recovery engine: attaching to a fresh pool's Null slot,
// to a slot holding a value that is not a pointer into the pool, to a
// misaligned pointer, and to an out-of-range slot index must all return
// a descriptive error — never mis-parse a header or panic out of bounds.
// The kvstore shard directory leans on exactly these checks when a
// directory entry is stale.
func TestAttachRejectsGarbageRoots(t *testing.T) {
	const words = 1 << 14
	attach := map[string]func(pool *pmem.Pool, slot int) error{
		"rhash": func(pool *pmem.Pool, slot int) error {
			_, err := rhash.Attach(pool, slot)
			return err
		},
		"rhash-parallel": func(pool *pmem.Pool, slot int) error {
			_, err := rhash.AttachParallel(pool, slot, recovery.New(recovery.Config{Workers: 3}))
			return err
		},
		"rlist": func(pool *pmem.Pool, slot int) error {
			_, err := rlist.Attach(pool, slot)
			return err
		},
		"rbst": func(pool *pmem.Pool, slot int) error {
			_, err := rbst.Attach(pool, slot)
			return err
		},
	}
	// Each case poisons root slot 0 (or uses a bad slot index) and states
	// a fragment the error must carry.
	cases := []struct {
		name   string
		slot   int
		poison uint64 // value stored in slot 0; 0 leaves the fresh pool as is
		want   string
	}{
		{name: "fresh pool", slot: 0, want: "holds no"},
		{name: "out-of-range slot", slot: pmem.NumRootSlots, want: "out of range"},
		{name: "negative slot", slot: -1, want: "out of range"},
		{name: "pointer past pool end", slot: 0, poison: words * pmem.WordSize * 2, want: "not a header address"},
		{name: "misaligned pointer", slot: 0, poison: 8*pmem.WordSize + 3, want: "not a header address"},
		{name: "pointer to zeroed region", slot: 0, poison: 64 * pmem.WordSize, want: "corrupt header"},
	}
	for name, fn := range attach {
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				pool := pmem.New(pmem.Config{
					Mode: pmem.ModeStrict, CapacityWords: words, MaxThreads: 1,
				})
				if c.poison != 0 {
					boot := pool.NewThread(0)
					boot.Store(pool.RootSlot(0), c.poison)
				}
				err := fn(pool, c.slot)
				if err == nil {
					t.Fatalf("attach succeeded on %s", c.name)
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Fatalf("attach error %q does not mention %q", err, c.want)
				}
			})
		}
	}
}
