package bench

import (
	"math/rand"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/rbst"
	"repro/internal/rhash"
	"repro/internal/rlist"
	"repro/internal/rqueue"
	"repro/internal/rstack"
)

// TestStrictFastCountsMatch runs the same seeded single-thread op stream
// on a ModeStrict and a ModeFast pool for rlist, rbst, rhash, rqueue,
// rstack and the kvstore, and requires identical persistence-instruction
// counts: per-site pwbs, total pwbs, psyncs and pfences. The crash sweep certifies strict
// mode while the benchmarks price fast mode, so this pins that fast mode
// records exactly the program strict mode certifies.
func TestStrictFastCountsMatch(t *testing.T) {
	const ops, keys = 3000, 64
	type build func(p *pmem.Pool, ctx *pmem.ThreadCtx) func(kind int, key int64)
	set := func(ins, del, find func(int64) bool) func(int, int64) {
		return func(kind int, key int64) {
			switch kind {
			case 0:
				ins(key)
			case 1:
				del(key)
			default:
				find(key)
			}
		}
	}
	structures := []struct {
		name  string
		build build
	}{
		{"rlist", func(p *pmem.Pool, ctx *pmem.ThreadCtx) func(int, int64) {
			h := rlist.New(p, 2, 0).Handle(ctx)
			return set(h.Insert, h.Delete, h.Find)
		}},
		{"rbst", func(p *pmem.Pool, ctx *pmem.ThreadCtx) func(int, int64) {
			h := rbst.New(p, 2, 0).Handle(ctx)
			return set(h.Insert, h.Delete, h.Find)
		}},
		{"rhash", func(p *pmem.Pool, ctx *pmem.ThreadCtx) func(int, int64) {
			h := rhash.New(p, 16, 2, 0).Handle(ctx)
			return set(h.Insert, h.Delete, h.Find)
		}},
		{"rqueue", func(p *pmem.Pool, ctx *pmem.ThreadCtx) func(int, int64) {
			h := rqueue.New(p, 2, 0).Handle(ctx)
			return func(kind int, key int64) {
				if kind == 0 {
					h.Enqueue(uint64(key))
				} else {
					h.Dequeue()
				}
			}
		}},
		{"rstack", func(p *pmem.Pool, ctx *pmem.ThreadCtx) func(int, int64) {
			h := rstack.New(p, 2, 0).Handle(ctx)
			return func(kind int, key int64) {
				if kind == 0 {
					h.Push(uint64(key))
				} else {
					h.Pop()
				}
			}
		}},
		{"kvstore", func(p *pmem.Pool, ctx *pmem.ThreadCtx) func(int, int64) {
			s, err := kvstore.New(p, kvstore.Config{Shards: 4, SlotsPerShard: 64, MaxThreads: 2})
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handle(ctx)
			return func(kind int, key int64) {
				var err error
				switch kind {
				case 0:
					_, err = h.Put(key, uint64(key), 0)
				case 1:
					_, err = h.Delete(key)
				default:
					h.Get(key)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	run := func(mode pmem.Mode, b build) pmem.Stats {
		p := pmem.New(pmem.Config{Mode: mode, CapacityWords: 1 << 19, MaxThreads: 2})
		ctx := p.NewThread(1)
		op := b(p, ctx)
		base := p.Snapshot()
		rng := rand.New(rand.NewSource(37))
		for i := 0; i < ops; i++ {
			op(rng.Intn(3), 1+rng.Int63n(keys))
		}
		return p.Snapshot().Sub(base)
	}
	for _, s := range structures {
		strict, fast := run(pmem.ModeStrict, s.build), run(pmem.ModeFast, s.build)
		if strict.PWBs == 0 {
			t.Errorf("%s: the stream recorded no pwb", s.name)
		}
		if strict.PWBs != fast.PWBs || strict.PSyncs != fast.PSyncs || strict.PFences != fast.PFences {
			t.Errorf("%s: strict pwbs/psyncs/pfences = %d/%d/%d, fast = %d/%d/%d", s.name,
				strict.PWBs, strict.PSyncs, strict.PFences, fast.PWBs, fast.PSyncs, fast.PFences)
		}
		if len(strict.PWBsBySite) != len(fast.PWBsBySite) {
			t.Errorf("%s: strict fires %d sites, fast %d", s.name, len(strict.PWBsBySite), len(fast.PWBsBySite))
		}
		for site, n := range strict.PWBsBySite {
			if fast.PWBsBySite[site] != n {
				t.Errorf("%s: site %s: strict %d pwbs, fast %d", s.name, site, n, fast.PWBsBySite[site])
			}
		}
		t.Logf("%s: %d pwbs, %d psyncs, %d pfences over %d sites", s.name,
			strict.PWBs, strict.PSyncs, strict.PFences, len(strict.PWBsBySite))
	}
}
