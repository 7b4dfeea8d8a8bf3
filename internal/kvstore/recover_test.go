package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/recovery"
	"repro/internal/rmm"
)

// recoveredStore builds a fast-mode store with keys 1..n live, recovers
// it once, and returns the recovered store for a test to edit its image.
func recoveredStore(t *testing.T, n int64) (*pmem.Pool, *Store) {
	t.Helper()
	pool := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 19, MaxThreads: 4})
	s, err := New(pool, Config{Shards: 4, Buckets: 8, SlotsPerShard: 256, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handle(pool.NewThread(1))
	for k := int64(1); k <= n; k++ {
		h.Invoke()
		if _, err := h.Put(k, uint64(k)*7, NoExpiry); err != nil {
			t.Fatal(err)
		}
	}
	h.Flush()
	r, err := Recover(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pool, r
}

// liveSlot returns shard si's first live slot index and its block.
func liveSlot(t *testing.T, ctx *pmem.ThreadCtx, s *Store, si int) (int, pmem.Addr) {
	t.Helper()
	for j := 0; j < s.slotCap; j++ {
		if v := ctx.Load(s.slotAddr(s.shards[si], j)); v != slotEmpty && v != slotTombstone {
			return j, pmem.Addr(v)
		}
	}
	t.Fatalf("shard %d has no live slot", si)
	return 0, pmem.Null
}

// emptySlot returns the first never-used slot of shard si at or after j.
func emptySlot(t *testing.T, ctx *pmem.ThreadCtx, s *Store, si, j int) int {
	t.Helper()
	for ; j < s.slotCap; j++ {
		if ctx.Load(s.slotAddr(s.shards[si], j)) == slotEmpty {
			return j
		}
	}
	t.Fatalf("shard %d has no empty slot", si)
	return 0
}

// orphan publishes, in shard si's first empty slot, a fresh block from
// the shard's own allocator (through a, a handle on it) holding key — the
// image a Put leaves when it crashes after its slot publish but before
// its index insert.
func orphan(t *testing.T, ctx *pmem.ThreadCtx, s *Store, si int, a *rmm.Handle, key int64) {
	t.Helper()
	b := a.Alloc()
	if b == pmem.Null {
		t.Fatalf("shard %d allocator exhausted", si)
	}
	ctx.Store(b+bKey*pmem.WordSize, uint64(key))
	ctx.Store(b+bVal*pmem.WordSize, 99)
	ctx.Store(b+bTTL*pmem.WordSize, NoExpiry)
	ctx.Store(s.slotAddr(s.shards[si], emptySlot(t, ctx, s, si, 0)), uint64(b))
}

// keyIn returns the smallest key above from that routes to shard si.
func keyIn(s *Store, si int, from int64) int64 {
	k := from + 1
	for s.shardOf(k) != si {
		k++
	}
	return k
}

// TestRecoverCorruptImage edits a recovered image directly and checks
// both halves of slot reconciliation: corruption outside the commit
// protocol fails Recover with a message naming it, and the crash
// artifacts the protocol allows are tombstoned and counted.
func TestRecoverCorruptImage(t *testing.T) {
	cases := []struct {
		name string
		keys int64
		// edit corrupts the image; it returns the exact error Recover must
		// fail with, or "" when Recover must succeed after tombstoning
		// reconciled slots.
		edit       func(t *testing.T, ctx *pmem.ThreadCtx, s *Store) string
		reconciled int
	}{
		{name: "foreign block", keys: 64, edit: func(t *testing.T, ctx *pmem.ThreadCtx, s *Store) string {
			_, b := liveSlot(t, ctx, s, 1)
			j := emptySlot(t, ctx, s, 0, 0)
			ctx.Store(s.slotAddr(s.shards[0], j), uint64(b))
			return fmt.Sprintf("kvstore: shard 0 slot %d: block %#x not owned by shard allocator", j, uint64(b))
		}},
		{name: "two live slots", keys: 64, edit: func(t *testing.T, ctx *pmem.ThreadCtx, s *Store) string {
			j, b := liveSlot(t, ctx, s, 2)
			ctx.Store(s.slotAddr(s.shards[2], emptySlot(t, ctx, s, 2, j+1)), uint64(b))
			return fmt.Sprintf("kvstore: shard 2: key %d has two live slots", int64(ctx.Load(b+bKey*pmem.WordSize)))
		}},
		{name: "member without slot", keys: 64, edit: func(t *testing.T, ctx *pmem.ThreadCtx, s *Store) string {
			j, _ := liveSlot(t, ctx, s, 3)
			members := len(s.shards[3].idx.Keys(ctx))
			ctx.Store(s.slotAddr(s.shards[3], j), slotTombstone)
			return fmt.Sprintf("kvstore: shard 3: %d index members vs %d consistent slots", members, members-1)
		}},
		{name: "member routed elsewhere", keys: 64, edit: func(t *testing.T, ctx *pmem.ThreadCtx, s *Store) string {
			members := len(s.shards[0].idx.Keys(ctx))
			k := keyIn(s, 1, 1000)
			h := s.shards[0].idx.HandleWith(s.eng.Thread(ctx))
			h.Invoke()
			h.Insert(k)
			orphan(t, ctx, s, 0, s.shards[0].alloc.Handle(ctx), k)
			return fmt.Sprintf("kvstore: shard 0: %d index members vs %d consistent slots", members+1, members)
		}},
		{name: "non-member slot", keys: 64, reconciled: 1, edit: func(t *testing.T, ctx *pmem.ThreadCtx, s *Store) string {
			orphan(t, ctx, s, 0, s.shards[0].alloc.Handle(ctx), keyIn(s, 0, 1000))
			return ""
		}},
		{name: "key routed elsewhere", keys: 64, reconciled: 1, edit: func(t *testing.T, ctx *pmem.ThreadCtx, s *Store) string {
			orphan(t, ctx, s, 0, s.shards[0].alloc.Handle(ctx), keyIn(s, 1, 0)) // a live key of shard 1
			return ""
		}},
		{name: "more orphans than members", keys: 8, reconciled: 40, edit: func(t *testing.T, ctx *pmem.ThreadCtx, s *Store) string {
			a := s.shards[2].alloc.Handle(ctx)
			for k, i := int64(1000), 0; i < 40; i++ {
				k = keyIn(s, 2, k)
				orphan(t, ctx, s, 2, a, k)
			}
			return ""
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pool, s := recoveredStore(t, c.keys)
			ctx := pool.NewThread(2)
			want := c.edit(t, ctx, s)
			r, err := Recover(pool, 0)
			if want != "" {
				if err == nil || err.Error() != want {
					t.Fatalf("Recover: %v, want %q", err, want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := r.LastRecovery().SlotsReconciled; got != c.reconciled {
				t.Fatalf("SlotsReconciled = %d, want %d", got, c.reconciled)
			}
			if got := r.LastRecovery().LeaksReclaimed; got != uint64(c.reconciled) {
				t.Fatalf("LeaksReclaimed = %d, want %d", got, c.reconciled)
			}
			if err := r.CheckInvariants(ctx, true); err != nil {
				t.Fatal(err)
			}
			if err := r.AuditPostRecovery(ctx); err != nil {
				t.Fatal(err)
			}
			h := r.Handle(pool.NewThread(1))
			for k := int64(1); k <= c.keys; k++ {
				if v, ok := h.Get(k); !ok || v != uint64(k)*7 {
					t.Fatalf("Get(%d) = (%d, %v) after reconciliation", k, v, ok)
				}
			}
			if n := len(r.Keys(ctx)); n != int(c.keys) {
				t.Fatalf("%d keys recovered, want %d", n, c.keys)
			}
		})
	}
}

// TestRecoverAllocsIndependentOfKeys pins that whole-store recovery
// allocates per shard, not per key: on one geometry, recovering 4096 keys
// may allocate only a few more objects than recovering 64 — each worker's
// reused scratch buffers (the index keys and the key table's two arrays)
// double at most log2(4096/64) = 6 more times. AllocsPerRun sets
// GOMAXPROCS to 1, so Recover runs one worker here; the 2-worker engine
// case pins the multi-worker branch under the same bound.
func TestRecoverAllocsIndependentOfKeys(t *testing.T) {
	pool := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 20, MaxThreads: 4})
	s, err := New(pool, Config{Shards: 16, Buckets: 64, SlotsPerShard: 1024,
		MaxThreads: 4, ChunkBlocks: 512, MaxChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handle(pool.NewThread(1))
	fill := func(from, to int64) {
		for k := from; k < to; k++ {
			h.Invoke()
			if _, err := h.Put(k, uint64(k), NoExpiry); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name    string
		recover func() (*Store, error)
	}{
		{"Recover", func() (*Store, error) { return Recover(pool, 0) }},
		{"2-worker engine", func() (*Store, error) {
			return RecoverParallel(pool, 0, recovery.New(recovery.Config{Workers: 2}))
		}},
	}
	allocs := func() []float64 {
		out := make([]float64, len(cases))
		for i, c := range cases {
			out[i] = testing.AllocsPerRun(5, func() {
				if _, err := c.recover(); err != nil {
					t.Fatal(err)
				}
			})
		}
		return out
	}
	fill(0, 64)
	small := allocs()
	fill(64, 4096)
	large := allocs()
	for i, c := range cases {
		t.Logf("%s: %.0f allocs at 64 keys, %.0f at 4096", c.name, small[i], large[i])
		if large[i]-small[i] > 18 {
			t.Errorf("%s allocates %.0f objects at 64 keys but %.0f at 4096: allocation grows with key count",
				c.name, small[i], large[i])
		}
	}
}
