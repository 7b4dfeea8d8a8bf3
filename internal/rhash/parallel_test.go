package rhash

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pmem"
	"repro/internal/recovery"
)

// buildCrashedMap deterministically constructs a crashed map: a single
// thread performs seeded insert/delete churn until an armed crash trigger
// parks it, then the crash resolves under a seeded adversary. Everything
// is a pure function of seed, so calling it twice yields byte-identical
// pools.
func buildCrashedMap(t *testing.T, seed int64) *pmem.Pool {
	t.Helper()
	pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 18, MaxThreads: 16})
	m := New(pool, 16, 4, 0)
	rng := rand.New(rand.NewSource(seed))
	pool.SetCrashAfter(int64(300 + rng.Intn(4000)))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil && r != pmem.ErrCrashed {
				panic(r)
			}
		}()
		h := m.Handle(pool.NewThread(1))
		for {
			key := int64(rng.Intn(64)) + 1
			if rng.Float64() < 0.7 {
				h.Insert(key)
			} else {
				h.Delete(key)
			}
		}
	}()
	wg.Wait()
	if !pool.CrashPending() {
		t.Fatal("workload finished without crashing")
	}
	pool.Crash(pmem.CrashPolicy{
		Rng:        rand.New(rand.NewSource(seed*13 + 5)),
		CommitProb: 0.5,
		EvictProb:  0.3,
	})
	pool.Recover()
	return pool
}

// TestAttachParallelMatchesSerial rebuilds each of 100 seeded crash
// states once per leg and checks that AttachParallel and
// CheckInvariantsParallel on engines of 1 and 3 workers agree with inline
// Attach and CheckInvariants: the same attach and invariant verdicts and
// the same keys in the same order.
func TestAttachParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		poolS := buildCrashedMap(t, seed)
		mS, errS := Attach(poolS, 0)
		var chkS error
		var keysS []int64
		if errS == nil {
			ctx := poolS.NewThread(2)
			chkS = mS.CheckInvariants(ctx, false)
			keysS = mS.Keys(ctx)
		}
		for _, workers := range []int{1, 3} {
			poolP := buildCrashedMap(t, seed)
			eng := recovery.New(recovery.Config{Workers: workers, BaseTID: 8})
			mP, errP := AttachParallel(poolP, 0, eng)
			if (errS == nil) != (errP == nil) {
				t.Fatalf("seed %d, %d workers: attach disagreement: inline %v, engine %v", seed, workers, errS, errP)
			}
			if errS != nil {
				continue
			}
			chkP := mP.CheckInvariantsParallel(eng, false)
			switch {
			case (chkS == nil) != (chkP == nil):
				t.Fatalf("seed %d, %d workers: invariant disagreement: inline %v, engine %v", seed, workers, chkS, chkP)
			case chkS != nil && chkS.Error() != chkP.Error():
				t.Fatalf("seed %d, %d workers: different complaints: inline %q, engine %q", seed, workers, chkS, chkP)
			case chkS != nil:
				continue
			}
			keysP := mP.Keys(poolP.NewThread(2))
			if fmt.Sprint(keysS) != fmt.Sprint(keysP) {
				t.Fatalf("seed %d, %d workers: keys differ:\ninline %v\nengine %v", seed, workers, keysS, keysP)
			}
		}
	}
}

// TestHandleCreationLazy pins the lazy bucket-handle fix: creating a
// per-thread Handle must not allocate per bucket, so its allocation count
// is independent of the table size.
func TestHandleCreationLazy(t *testing.T) {
	mk := func(buckets int) (*pmem.Pool, *Map) {
		pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 20, MaxThreads: 8})
		return pool, New(pool, buckets, 4, 0)
	}
	poolSmall, small := mk(8)
	poolBig, big := mk(4096)
	ctxSmall := poolSmall.NewThread(1)
	ctxBig := poolBig.NewThread(1)
	allocsSmall := testing.AllocsPerRun(100, func() { _ = small.Handle(ctxSmall) })
	allocsBig := testing.AllocsPerRun(100, func() { _ = big.Handle(ctxBig) })
	if allocsBig != allocsSmall {
		t.Fatalf("Handle allocations scale with buckets: %v (8 buckets) vs %v (4096)", allocsSmall, allocsBig)
	}
	if allocsBig > 4 {
		t.Fatalf("Handle costs %v allocations, want a small constant", allocsBig)
	}
}

// TestHandleLazyFirstTouch verifies no bucket handle exists until the first
// operation touches its bucket, and then exactly that one materializes.
func TestHandleLazyFirstTouch(t *testing.T) {
	pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 20, MaxThreads: 8})
	m := New(pool, 64, 4, 0)
	h := m.Handle(pool.NewThread(1))
	if h.handles != nil {
		t.Fatal("bucket handle slice materialized before any operation")
	}
	if !h.Insert(7) {
		t.Fatal("insert failed")
	}
	var live int
	for _, b := range h.handles {
		if b != nil {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("%d bucket handles after one operation, want exactly 1", live)
	}
}
