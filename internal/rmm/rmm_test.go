package rmm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/pmem"
	"repro/internal/recovery"
)

func newAlloc(t testing.TB, mode pmem.Mode, blockWords, nBlocks int) (*pmem.Pool, *Allocator) {
	t.Helper()
	pool := pmem.New(pmem.Config{Mode: mode, CapacityWords: 1 << 18, MaxThreads: 16})
	return pool, New(pool, blockWords, nBlocks, 0)
}

func TestAllocFreeCycle(t *testing.T) {
	pool, a := newAlloc(t, pmem.ModeStrict, 4, 64)
	h := a.Handle(pool.NewThread(1))
	b1 := h.Alloc()
	if b1 == pmem.Null {
		t.Fatal("Alloc failed on fresh allocator")
	}
	// Fresh blocks are zeroed.
	for i := 0; i < 4; i++ {
		if v := h.ctx.Load(b1 + pmem.Addr(i*pmem.WordSize)); v != 0 {
			t.Fatalf("block word %d = %d", i, v)
		}
	}
	// The refill reserved a whole batch; Flush returns the unused rest.
	if n := a.InUse(h.ctx); n != refillBlocks {
		t.Fatalf("InUse = %d before Flush, want the refilled batch of %d", n, refillBlocks)
	}
	h.Flush()
	if a.InUse(h.ctx) != 1 {
		t.Fatalf("InUse = %d", a.InUse(h.ctx))
	}
	if err := h.Free(b1); err != nil {
		t.Fatal(err)
	}
	h.Flush()
	if a.InUse(h.ctx) != 0 {
		t.Fatal("block not freed")
	}
	if err := h.Free(b1); err == nil {
		t.Fatal("double free not detected")
	}
	if err := h.Free(b1 + 1); err == nil {
		t.Fatal("bogus address accepted")
	}
}

// TestAllocFindsFreedBlockBelowCursor: with fewer blocks than the chunk
// size, fill the allocator, free an early block, and allocate again. The
// scan windows must wrap around the bitmap; suffix-only windows miss the
// freed block once the cursor has moved past it and report exhaustion
// with a block free.
func TestAllocFindsFreedBlockBelowCursor(t *testing.T) {
	const n = 24 // deliberately smaller than chunkBlocks
	pool, a := newAlloc(t, pmem.ModeStrict, 2, n)
	h := a.Handle(pool.NewThread(1))
	var first pmem.Addr
	for i := 0; i < n; i++ {
		b := h.Alloc()
		if b == pmem.Null {
			t.Fatalf("exhausted after %d of %d blocks", i, n)
		}
		if i == 0 {
			first = b
		}
	}
	if err := h.Free(first); err != nil {
		t.Fatal(err)
	}
	if b := h.Alloc(); b != first {
		t.Fatalf("Alloc after freeing %#x returned %#x; the freed block was missed",
			uint64(first), uint64(b))
	}
}

func TestExhaustion(t *testing.T) {
	pool, a := newAlloc(t, pmem.ModeStrict, 2, 16)
	h := a.Handle(pool.NewThread(1))
	var got []pmem.Addr
	for {
		b := h.Alloc()
		if b == pmem.Null {
			break
		}
		got = append(got, b)
	}
	if len(got) != 16 {
		t.Fatalf("allocated %d blocks, want 16", len(got))
	}
	// Free one; it must become allocatable again.
	if err := h.Free(got[7]); err != nil {
		t.Fatal(err)
	}
	if b := h.Alloc(); b != got[7] {
		t.Fatalf("re-alloc = %#x, want %#x", uint64(b), uint64(got[7]))
	}
}

func TestUniqueAddresses(t *testing.T) {
	pool, a := newAlloc(t, pmem.ModeFast, 2, 512)
	const threads = 6
	var mu sync.Mutex
	seen := map[pmem.Addr]int{}
	var wg sync.WaitGroup
	for tid := 1; tid <= threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			h := a.Handle(pool.NewThread(tid))
			for i := 0; i < 64; i++ {
				b := h.Alloc()
				if b == pmem.Null {
					t.Error("exhausted prematurely")
					return
				}
				mu.Lock()
				seen[b]++
				mu.Unlock()
			}
		}(tid)
	}
	wg.Wait()
	if len(seen) != threads*64 {
		t.Fatalf("%d unique blocks for %d allocations", len(seen), threads*64)
	}
	for b, n := range seen {
		if n != 1 {
			t.Fatalf("block %#x allocated %d times", uint64(b), n)
		}
	}
}

// TestBitDurableBeforeReturn crashes right after Alloc returned, under
// the adversary that drops every unsynced write-back: the returned
// block's bit is durable, and the recovered allocator never issues it
// again. The refill's whole batch stays reserved until RecoverGC.
func TestBitDurableBeforeReturn(t *testing.T) {
	pool, a := newAlloc(t, pmem.ModeStrict, 2, 32)
	h := a.Handle(pool.NewThread(1))
	b := h.Alloc()
	w, mask := a.bitWord(mustIndex(t, a, b))
	pool.TriggerCrash()
	pool.Crash(pmem.CrashPolicy{})
	pool.Recover()
	if pool.DurableLoad(w)&mask == 0 {
		t.Fatal("allocation bit lost despite Alloc having returned")
	}
	a2, err := Attach(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := pool.NewThread(1)
	if n := a2.InUse(ctx); n != refillBlocks {
		t.Fatalf("InUse = %d after the crash, want the reserved batch of %d", n, refillBlocks)
	}
	h2 := a2.Handle(ctx)
	issued := 0
	for got := h2.Alloc(); got != pmem.Null; got = h2.Alloc() {
		if got == b {
			t.Fatal("block double-allocated after crash")
		}
		issued++
	}
	if issued != 32-refillBlocks {
		t.Fatalf("recovered allocator issued %d blocks, want the %d unreserved ones", issued, 32-refillBlocks)
	}
}

// mustIndex is blockIndex for an address the test knows is a block.
func mustIndex(t *testing.T, a *Allocator, b pmem.Addr) int {
	t.Helper()
	g, err := a.blockIndex(b)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRecoverGC(t *testing.T) {
	pool, a := newAlloc(t, pmem.ModeStrict, 2, 32)
	h := a.Handle(pool.NewThread(1))
	keep := h.Alloc()
	leak := h.Alloc()
	_ = leak // allocated but never linked anywhere: leaked by the "crash"
	pool.TriggerCrash()
	pool.Crash(pmem.CrashPolicy{})
	pool.Recover()

	a2, err := Attach(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := pool.NewThread(1)
	if a2.InUse(ctx) != refillBlocks {
		t.Fatalf("pre-GC InUse = %d, want the reserved batch of %d", a2.InUse(ctx), refillBlocks)
	}
	// The application's only root references keep.
	err = a2.RecoverGC(ctx, func(visit func(pmem.Addr) error) error {
		return visit(keep)
	})
	if err != nil {
		t.Fatal(err)
	}
	if a2.InUse(ctx) != 1 {
		t.Fatalf("post-GC InUse = %d, want 1 (leak not reclaimed)", a2.InUse(ctx))
	}
	if n := a2.Stats().LeaksReclaimed; n != refillBlocks-1 {
		t.Fatalf("LeaksReclaimed = %d, want %d", n, refillBlocks-1)
	}
	// The reclaimed block is allocatable again; keep is not reissued.
	h2 := a2.Handle(ctx)
	for i := 0; i < 31; i++ {
		if b := h2.Alloc(); b == keep {
			t.Fatal("reachable block reissued after GC")
		}
	}
}

// TestRecoverGCRejectsBogusRoots feeds a mark that visits an address
// that is no block to RecoverGC and to RecoverGCParallel on engines of 1
// and 3 workers: each must fail before its rebuild, leaving every durable
// bitmap word as the allocations set it. A mark that visits nothing is no
// error: RecoverGCParallel then reclaims every block, exactly as
// RecoverGC does.
func TestRecoverGCRejectsBogusRoots(t *testing.T) {
	setup := func() (*pmem.Pool, *Allocator, []pmem.Addr) {
		pool, a := newAlloc(t, pmem.ModeStrict, 2, 200)
		h := a.Handle(pool.NewThread(1))
		live := make([]pmem.Addr, 100)
		for i := range live {
			live[i] = h.Alloc()
		}
		h.Flush()
		return pool, a, live
	}
	bitmaps := func(pool *pmem.Pool, a *Allocator) []uint64 {
		out := make([]uint64, a.totalBitmapWords())
		for wi := range out {
			out[wi] = pool.DurableLoad(a.wordAddr(wi))
		}
		return out
	}
	bogus := func(_ *pmem.ThreadCtx, visit func(pmem.Addr) error) error { return visit(pmem.Addr(12345)) }
	legs := map[string]func(pool *pmem.Pool, a *Allocator, live []pmem.Addr) error{
		"inline": func(pool *pmem.Pool, a *Allocator, live []pmem.Addr) error {
			return a.RecoverGC(pool.NewThread(1), func(visit func(pmem.Addr) error) error {
				return bogus(nil, visit)
			})
		},
	}
	for _, workers := range identityWorkers {
		eng := recovery.New(recovery.Config{Workers: workers, BaseTID: 8})
		legs[fmt.Sprintf("%d workers", workers)] = func(_ *pmem.Pool, a *Allocator, live []pmem.Addr) error {
			return a.RecoverGCParallel(eng, append(ShardAddrs(live, 2), bogus))
		}
	}
	for name, run := range legs {
		pool, a, live := setup()
		before := bitmaps(pool, a)
		if err := run(pool, a, live); err == nil {
			t.Fatalf("%s: bogus root accepted", name)
		}
		if after := bitmaps(pool, a); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("%s: durable bitmaps changed by a failed RecoverGC:\nbefore %x\nafter  %x", name, before, after)
		}
	}

	poolS, ref, _ := setup()
	if err := ref.RecoverGC(poolS.NewThread(1), func(func(pmem.Addr) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	_, got, _ := setup()
	eng := recovery.New(recovery.Config{Workers: 3, BaseTID: 8})
	if err := got.RecoverGCParallel(eng, ShardAddrs(nil, 3)); err != nil {
		t.Fatal(err)
	}
	requireSameRecovery(t, "empty mark", ref, got, eng, 0)
	if free := got.Stats().LeaksReclaimed; free != 100 {
		t.Fatalf("empty mark reclaimed %d blocks, want 100", free)
	}
}

// TestQuickAllocFreeModel compares the allocator against a set model under
// random alloc/free sequences.
func TestQuickAllocFreeModel(t *testing.T) {
	f := func(ops []uint8) bool {
		pool, a := newAlloc(t, pmem.ModeStrict, 2, 24)
		h := a.Handle(pool.NewThread(1))
		live := map[pmem.Addr]bool{}
		for _, o := range ops {
			if o%2 == 0 {
				b := h.Alloc()
				if b == pmem.Null {
					if len(live) != 24 {
						return false // spurious exhaustion
					}
					continue
				}
				if live[b] {
					return false // double allocation
				}
				live[b] = true
			} else if len(live) > 0 {
				var victim pmem.Addr
				for b := range live {
					victim = b
					break
				}
				if err := h.Free(victim); err != nil {
					return false
				}
				delete(live, victim)
			}
		}
		h.Flush()
		return a.InUse(h.ctx) == len(live)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(37))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
