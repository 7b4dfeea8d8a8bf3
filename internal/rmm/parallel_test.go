package rmm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pmem"
	"repro/internal/recovery"
)

// buildCrashedAlloc deterministically constructs a crashed allocator state:
// a single thread performs seeded alloc/free churn until an armed crash
// trigger parks it, then the crash is resolved under a seeded adversary.
// It returns the recovered pool and the volatile reachable set (the blocks
// the application still held at the crash). Everything is a pure function
// of seed, so calling it twice yields byte-identical pools.
func buildCrashedAlloc(t *testing.T, seed int64, nBlocks int) (*pmem.Pool, []pmem.Addr) {
	t.Helper()
	pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 16, MaxThreads: 16})
	a := New(pool, 4, nBlocks, 0)
	rng := rand.New(rand.NewSource(seed))
	var live []pmem.Addr
	pool.SetCrashAfter(int64(200 + rng.Intn(3000)))
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
		for {
			if len(live) == 0 || rng.Float64() < 0.6 {
				if b := h.Alloc(); b != pmem.Null {
					live = append(live, b)
				}
			} else {
				i := rng.Intn(len(live))
				b := live[i]
				live = append(live[:i], live[i+1:]...)
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

// markFromList adapts a reachable list to the serial RecoverGC mark shape.
func markFromList(addrs []pmem.Addr) func(visit func(pmem.Addr) error) error {
	return func(visit func(pmem.Addr) error) error {
		for _, b := range addrs {
			if err := visit(b); err != nil {
				return err
			}
		}
		return nil
	}
}

// identityWorkers are the engine sizes the identity tests compare with
// the inline reference: one worker runs every item on one fresh context,
// three deal the items (and the mark shards) across contexts.
var identityWorkers = []int{1, 3}

// recoverInline is the identity tests' reference: Attach and RecoverGC,
// both inline, over the reachable list.
func recoverInline(t *testing.T, pool *pmem.Pool, live []pmem.Addr) *Allocator {
	t.Helper()
	a, err := Attach(pool, 0)
	if err != nil {
		t.Fatalf("inline attach: %v", err)
	}
	if err := a.RecoverGC(pool.NewThread(1), markFromList(live)); err != nil {
		t.Fatalf("inline RecoverGC: %v", err)
	}
	return a
}

// recoverOnEngine is the engine leg: AttachParallel and RecoverGCParallel
// on a fresh engine of the given size, the reachable list cut into parts
// mark shards.
func recoverOnEngine(t *testing.T, pool *pmem.Pool, live []pmem.Addr, workers, parts int) (*Allocator, *recovery.Engine) {
	t.Helper()
	eng := recovery.New(recovery.Config{Workers: workers, BaseTID: 8})
	a, err := AttachParallel(pool, 0, eng)
	if err != nil {
		t.Fatalf("%d workers: AttachParallel: %v", workers, err)
	}
	if err := a.RecoverGCParallel(eng, ShardAddrs(live, parts)); err != nil {
		t.Fatalf("%d workers: RecoverGCParallel: %v", workers, err)
	}
	return a, eng
}

// requireSameRecovery fails unless two recoveries of one crash state left
// the same durable words, the same free-stacks in the same order, and the
// same in-use count, which must equal want.
func requireSameRecovery(t *testing.T, what string, ref, got *Allocator, eng *recovery.Engine, want int) {
	t.Helper()
	words := ref.pool.AllocatedWords()
	if wg := got.pool.AllocatedWords(); wg != words {
		t.Fatalf("%s: allocated words %d vs %d", what, words, wg)
	}
	for w := 1; w < words; w++ { // word 0 is the reserved Null address
		addr := pmem.Addr(w * pmem.WordSize)
		if vR, vG := ref.pool.DurableLoad(addr), got.pool.DurableLoad(addr); vR != vG {
			t.Fatalf("%s: durable word %d differs: %#x (inline) vs %#x (engine)", what, w, vR, vG)
		}
	}
	if sR, sG := freeStacks(ref), freeStacks(got); fmt.Sprint(sR) != fmt.Sprint(sG) {
		t.Fatalf("%s: free-stacks differ:\ninline %v\nengine %v", what, sR, sG)
	}
	nR := ref.InUse(ref.pool.NewThread(2))
	nG, err := got.InUseParallel(eng)
	if err != nil || nR != nG || nR != want {
		t.Fatalf("%s: in-use %d (inline) vs %d (engine, %v), want %d", what, nR, nG, err, want)
	}
	for _, a := range []*Allocator{ref, got} {
		if err := a.CheckInvariants(a.pool.NewThread(2)); err != nil {
			t.Fatalf("%s: invariants: %v", what, err)
		}
	}
}

// freeStacks lists every chunk's volatile free-stack, top first.
func freeStacks(a *Allocator) [][]uint32 {
	out := make([][]uint32, a.nChunks.Load())
	for ci := range out {
		c := a.chunkAt(ci)
		for idx1 := uint32(c.top.Load()); idx1 != 0 && len(out[ci]) <= a.chunkCap; idx1 = c.next[idx1-1].Load() {
			out[ci] = append(out[ci], idx1)
		}
	}
	return out
}

// TestRecoverGCSerialParallelIdentical rebuilds each of 100 seeded crash
// states once per leg and checks that RecoverGCParallel on engines of 1
// and 3 workers leaves the same durable memory, free-stacks and in-use
// count as inline RecoverGC.
func TestRecoverGCSerialParallelIdentical(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		poolS, liveS := buildCrashedAlloc(t, seed, 256)
		ref := recoverInline(t, poolS, liveS)
		for _, workers := range identityWorkers {
			poolP, liveP := buildCrashedAlloc(t, seed, 256)
			if len(liveS) != len(liveP) {
				t.Fatalf("seed %d: rebuild not deterministic: %d vs %d live blocks", seed, len(liveS), len(liveP))
			}
			got, eng := recoverOnEngine(t, poolP, liveP, workers, 16)
			requireSameRecovery(t, fmt.Sprintf("seed %d, %d workers", seed, workers), ref, got, eng, len(liveS))
		}
	}
}

// TestRecoverGCParallelConcurrentReaders races RecoverGCParallel against
// InUse and BlockAddr readers under -race: the rebuild's bitmap writes must
// not constitute a data race with concurrent diagnostic reads.
func TestRecoverGCParallelConcurrentReaders(t *testing.T) {
	pool, live := buildCrashedAlloc(t, 42, 256)
	a, err := Attach(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := pool.NewThread(14 + r)
			for {
				select {
				case <-done:
					return
				default:
				}
				a.InUse(ctx)
				a.BlockAddr(r * 3)
			}
		}(r)
	}
	eng := recovery.New(recovery.Config{Workers: 4, BaseTID: 8})
	if err := a.RecoverGCParallel(eng, ShardAddrs(live, 16)); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if n := a.InUse(pool.NewThread(2)); n != len(live) {
		t.Fatalf("in-use %d after concurrent rebuild, want %d", n, len(live))
	}
}

// TestAllocNearFullAmortized pins the free-stack hot path's O(1) bound:
// with the allocator nearly full, churn cost must not depend on nBlocks.
// Single free/alloc round-trips ride the handle's local free buffer (zero
// shared-stack traffic and the freed block comes straight back); batched
// churn that forces flush/refill traffic must average a small constant
// number of stack steps (CAS attempts + links walked) per operation —
// under the old bitmap scan this grew with nBlocks/64.
func TestAllocNearFullAmortized(t *testing.T) {
	const nBlocks = 1024
	pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 17, MaxThreads: 4})
	a := New(pool, 4, nBlocks, 0)
	h := a.Handle(pool.NewThread(1))
	blocks := make([]pmem.Addr, nBlocks)
	for i := range blocks {
		blocks[i] = h.Alloc()
		if blocks[i] == pmem.Null {
			t.Fatalf("fill failed at %d", i)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 512; i++ {
		victim := rng.Intn(nBlocks)
		if err := h.Free(blocks[victim]); err != nil {
			t.Fatal(err)
		}
		b := h.Alloc()
		if b == pmem.Null {
			t.Fatalf("round %d: allocation failed with a free block available", i)
		}
		if b != blocks[victim] {
			t.Fatalf("round %d: got block %#x, want the freed %#x", i, b, blocks[victim])
		}
	}
	const rounds, batch = 128, 2 * flushBlocks
	start := a.stackSteps.Load()
	for i := 0; i < rounds; i++ {
		lo := rng.Intn(nBlocks - batch)
		for j := 0; j < batch; j++ { // crosses the flush threshold
			if err := h.Free(blocks[lo+j]); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < batch; j++ { // drains the buffer, forces refills
			if b := h.Alloc(); b == pmem.Null {
				t.Fatalf("round %d: refill failed with %d free blocks", i, batch)
			}
		}
		for j := 0; j < batch; j++ {
			blocks[lo+j] = a.BlockAddr(lo + j) // stable identity: set is unchanged
		}
	}
	perOp := float64(a.stackSteps.Load()-start) / float64(rounds*2*batch)
	// One refill CAS amortizes over refillBlocks pops and walks at most
	// refillBlocks links; anything materially above that constant means
	// the hot path has picked up a population-dependent component.
	if perOp > 4 {
		t.Fatalf("near-full churn averaged %.2f stack steps per op, want O(1) <= 4", perOp)
	}
}

// TestAllocTinyPoolWrap exercises windows wider than the block count
// (nBlocks < chunkBlocks): reservation windows clamp to one lap, so a
// freed block is always found on the next wrap.
func TestAllocTinyPoolWrap(t *testing.T) {
	const nBlocks = 8
	pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 12, MaxThreads: 4})
	a := New(pool, 4, nBlocks, 0)
	h := a.Handle(pool.NewThread(1))
	blocks := make([]pmem.Addr, nBlocks)
	for i := range blocks {
		blocks[i] = h.Alloc()
		if blocks[i] == pmem.Null {
			t.Fatalf("fill failed at %d", i)
		}
	}
	for round := 0; round < 50; round++ {
		victim := round % nBlocks
		if err := h.Free(blocks[victim]); err != nil {
			t.Fatal(err)
		}
		if b := h.Alloc(); b != blocks[victim] {
			t.Fatalf("round %d: got %#x, want freed %#x", round, b, blocks[victim])
		}
	}
	if h.Alloc() != pmem.Null {
		t.Fatal("full allocator handed out a block")
	}
}
