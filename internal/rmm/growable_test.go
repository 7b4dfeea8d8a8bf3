package rmm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pmem"
)

// TestGrowOnDemand pins the growth policy: a growable allocator starts
// with one chunk and grows exactly when every published chunk is
// exhausted, up to maxChunks, after which Alloc reports Null.
func TestGrowOnDemand(t *testing.T) {
	pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 16, MaxThreads: 4})
	a := NewGrowable(pool, 4, 16, 3, 0)
	h := a.Handle(pool.NewThread(1))
	if got := a.Stats().Chunks; got != 1 {
		t.Fatalf("fresh growable allocator has %d chunks, want 1", got)
	}
	seen := map[pmem.Addr]bool{}
	for i := 0; i < 48; i++ {
		b := h.Alloc()
		if b == pmem.Null {
			t.Fatalf("alloc %d failed with growth headroom left", i)
		}
		if seen[b] {
			t.Fatalf("alloc %d returned duplicate block %#x", i, uint64(b))
		}
		seen[b] = true
	}
	if st := a.Stats(); st.Chunks != 3 || st.Grows != 3 {
		t.Fatalf("after filling 3 chunks: chunks=%d grows=%d, want 3/3", st.Chunks, st.Grows)
	}
	if b := h.Alloc(); b != pmem.Null {
		t.Fatalf("alloc beyond maxChunks returned %#x, want Null", uint64(b))
	}
}

// buildCrashedGrowable is buildCrashedAlloc over a growable allocator:
// seeded churn with an alloc-heavy opening so the arena grows through
// several chunks before the armed crash lands. Pure function of seed.
func buildCrashedGrowable(t *testing.T, seed int64) (*pmem.Pool, []pmem.Addr) {
	t.Helper()
	pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 16, MaxThreads: 16})
	a := NewGrowable(pool, 4, 32, 8, 0)
	rng := rand.New(rand.NewSource(seed))
	var live []pmem.Addr
	pool.SetCrashAfter(int64(500 + rng.Intn(4000)))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil && r != pmem.ErrCrashed {
				panic(r)
			}
		}()
		h := a.Handle(pool.NewThread(1))
		for i := 0; ; i++ {
			if i < 80 || len(live) == 0 || rng.Float64() < 0.6 {
				if b := h.Alloc(); b != pmem.Null {
					live = append(live, b)
				}
			} else {
				j := rng.Intn(len(live))
				b := live[j]
				live = append(live[:j], live[j+1:]...)
				if err := h.Free(b); err != nil {
					panic(err)
				}
			}
		}
	}()
	wg.Wait()
	if !pool.CrashPending() {
		t.Fatal("workload finished without crashing")
	}
	pool.Crash(pmem.CrashPolicy{
		Rng:        rand.New(rand.NewSource(seed*7 + 1)),
		CommitProb: 0.5,
		EvictProb:  0.3,
	})
	pool.Recover()
	return pool, live
}

// TestGrowableSerialParallelIdentical is the multi-chunk version of
// TestRecoverGCSerialParallelIdentical: 100 seeded crash states whose
// churn crosses chunk growth, each recovered inline and on engines of 1
// and 3 workers, requiring the same durable memory, free-stacks and
// in-use counts.
func TestGrowableSerialParallelIdentical(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		poolS, liveS := buildCrashedGrowable(t, seed)
		ref := recoverInline(t, poolS, liveS)
		for _, workers := range identityWorkers {
			poolP, liveP := buildCrashedGrowable(t, seed)
			if len(liveS) != len(liveP) {
				t.Fatalf("seed %d: rebuild not deterministic: %d vs %d live", seed, len(liveS), len(liveP))
			}
			got, eng := recoverOnEngine(t, poolP, liveP, workers, 16)
			requireSameRecovery(t, fmt.Sprintf("seed %d, %d workers", seed, workers), ref, got, eng, len(liveS))
		}
	}
}

// TestCrashMidGrow lands a crash exactly on each persist point of the
// grow path, under the worst-case drop-all adversary. A crash before the
// chunk-count publish must leave the durable chunk count — and every
// later allocation — exactly as if the grow never happened; a crash after
// it must expose the new chunk fully free.
func TestCrashMidGrow(t *testing.T) {
	for _, tc := range []struct {
		name       string
		site       func(a *Allocator) pmem.Site
		wantChunks int
	}{
		// The directory-entry pwb precedes the fence: dropping it hides
		// the grow entirely.
		{"dir-entry-dropped", func(a *Allocator) pmem.Site { return a.s.dir }, 1},
		// The count pwb is the commit point: the trigger fires after the
		// write-back is scheduled, and the drop-all adversary discards it,
		// so the grow still rolls back.
		{"count-dropped", func(a *Allocator) pmem.Site { return a.s.count }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 16, MaxThreads: 8})
			a := NewGrowable(pool, 4, 16, 4, 0)
			h := a.Handle(pool.NewThread(1))
			live := make([]pmem.Addr, 0, 16)
			for i := 0; i < 16; i++ {
				live = append(live, h.Alloc())
			}
			pool.SetCrashAtSite(tc.site(a), 1)
			func() {
				defer func() {
					if r := recover(); r != nil && r != pmem.ErrCrashed {
						panic(r)
					}
				}()
				for {
					if h.Alloc() == pmem.Null {
						t.Error("alloc hit Null before the armed grow-site crash")
						return
					}
				}
			}()
			if !pool.CrashPending() {
				t.Fatal("grow never reached the armed site")
			}
			pool.Crash(pmem.CrashPolicy{}) // worst case: drop everything pending
			pool.Recover()

			a2, err := Attach(pool, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := a2.Stats().Chunks; got != tc.wantChunks {
				t.Fatalf("recovered with %d chunks, want %d", got, tc.wantChunks)
			}
			if err := a2.RecoverGC(pool.NewThread(1), markFromList(live)); err != nil {
				t.Fatal(err)
			}
			if n := a2.InUse(pool.NewThread(1)); n != len(live) {
				t.Fatalf("in-use %d after GC, want %d", n, len(live))
			}
			if err := a2.CheckInvariants(pool.NewThread(1)); err != nil {
				t.Fatal(err)
			}
			// The surviving arena must still be fully usable: refill the
			// torn-grow chunk's worth of blocks and grow onward from the
			// recovered state.
			h2 := a2.Handle(pool.NewThread(2))
			for i := 0; i < 32; i++ {
				if b := h2.Alloc(); b == pmem.Null {
					t.Fatalf("post-recovery alloc %d failed", i)
				}
			}
			if st := a2.Stats(); st.Chunks < 2 {
				t.Fatalf("post-recovery growth failed: %+v", st)
			}
		})
	}
}

// TestCrashMidGrowSerialParallelIdentical replays the same mid-grow crash
// once per leg and requires recovery on engines of 1 and 3 workers to
// leave the same durable state and free-stacks as inline recovery — the
// grow path must not introduce any worker-count dependence.
func TestCrashMidGrowSerialParallelIdentical(t *testing.T) {
	build := func() (*pmem.Pool, []pmem.Addr) {
		pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 16, MaxThreads: 8})
		a := NewGrowable(pool, 4, 16, 4, 0)
		h := a.Handle(pool.NewThread(1))
		live := make([]pmem.Addr, 0, 16)
		for i := 0; i < 16; i++ {
			live = append(live, h.Alloc())
		}
		pool.SetCrashAtSite(a.s.count, 1)
		func() {
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrCrashed {
					panic(r)
				}
			}()
			for {
				h.Alloc()
			}
		}()
		pool.Crash(pmem.CrashPolicy{})
		pool.Recover()
		return pool, live
	}
	poolS, liveS := build()
	ref := recoverInline(t, poolS, liveS)
	for _, workers := range identityWorkers {
		poolP, liveP := build()
		got, eng := recoverOnEngine(t, poolP, liveP, workers, 8)
		requireSameRecovery(t, fmt.Sprintf("%d workers", workers), ref, got, eng, len(liveS))
	}
}

// TestConcurrentChurnRace drives concurrent Alloc/Free churn across
// growing chunks under -race: the free-stack CASes, the handle caches
// and the grow lock must be data-race-free, every handed-out block must
// be exclusively owned, and the final population must reconcile.
func TestConcurrentChurnRace(t *testing.T) {
	const threads, perThread = 6, 400
	pool := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 18, MaxThreads: threads + 2})
	a := NewGrowable(pool, 4, 64, 8, 0)
	var wg sync.WaitGroup
	liveCount := make([]int, threads)
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			h := a.Handle(pool.NewThread(tid + 1))
			rng := rand.New(rand.NewSource(int64(tid)))
			var mine []pmem.Addr
			for i := 0; i < perThread; i++ {
				if len(mine) == 0 || rng.Float64() < 0.55 {
					if b := h.Alloc(); b != pmem.Null {
						// Exclusive ownership: write a tag no one else may
						// touch; -race plus the reconcile below catch any
						// double allocation.
						h.ctx.Store(b, uint64(tid)<<32|uint64(i))
						mine = append(mine, b)
					}
				} else {
					j := rng.Intn(len(mine))
					b := mine[j]
					mine = append(mine[:j], mine[j+1:]...)
					if err := h.Free(b); err != nil {
						panic(err)
					}
				}
			}
			h.Flush()
			liveCount[tid] = len(mine)
		}(tid)
	}
	wg.Wait()
	want := 0
	for _, n := range liveCount {
		want += n
	}
	ctx := pool.NewThread(threads + 1)
	if got := a.InUse(ctx); got != want {
		t.Fatalf("in-use %d after churn, want %d", got, want)
	}
	if err := a.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}
