package rmm_test

import (
	"fmt"
	"log"

	"repro/internal/pmem"
	"repro/internal/recovery"
	"repro/internal/rmm"
)

// Example walks the allocator's full crash lifecycle: demand-driven chunk
// growth, a crash that leaks half the live blocks and the handle's
// reserved cache, parallel reattach and RecoverGC from the application's
// reachable set, and the leak statistics the GC leaves behind.
func Example() {
	pool := pmem.New(pmem.Config{
		Mode:          pmem.ModeStrict,
		CapacityWords: 1 << 14,
		MaxThreads:    16,
	})

	// One chunk of 8 four-word blocks, growable to 4 chunks.
	a := rmm.NewGrowable(pool, 4, 8, 4, 0)
	h := a.Handle(pool.NewThread(1))

	// Allocate 20 blocks: demand grows the arena through 3 chunks. Keep
	// every other block reachable; the rest will leak in the crash.
	var kept []pmem.Addr
	for i := 0; i < 20; i++ {
		b := h.Alloc()
		if b == pmem.Null {
			log.Fatal("allocation failed with growth headroom left")
		}
		if i%2 == 0 {
			kept = append(kept, b)
		}
	}
	fmt.Println("chunks after growth:", a.Stats().Chunks)

	// Crash: all volatile state (free-stacks, handle caches) is lost, and
	// the worst-case adversary drops every unsynced write-back. The
	// reservation bitmaps survive — each refill made its batch's bits
	// durable before handing a block out — so the 4 blocks still cached
	// in the handle leak along with the 10 dropped ones.
	pool.TriggerCrash()
	pool.Crash(pmem.CrashPolicy{})
	pool.Recover()

	// Parallel recovery: reattach from the root slot, then mark the
	// reachable set with 4 workers. RecoverGC reclaims every allocated
	// block the mark did not visit and rebuilds the free-stacks in the
	// same pass.
	eng := recovery.New(recovery.Config{Workers: 4, BaseTID: 8})
	a2, err := rmm.AttachParallel(pool, 0, eng)
	if err != nil {
		log.Fatal(err)
	}
	if err := a2.RecoverGCParallel(eng, rmm.ShardAddrs(kept, 4)); err != nil {
		log.Fatal(err)
	}
	inUse, err := a2.InUseParallel(eng)
	if err != nil {
		log.Fatal(err)
	}

	st := a2.Stats()
	fmt.Println("live after recovery:", inUse)
	fmt.Println("leaks reclaimed:", st.LeaksReclaimed)
	fmt.Println("free blocks:", st.FreeBlocks)

	// Output:
	// chunks after growth: 3
	// live after recovery: 10
	// leaks reclaimed: 14
	// free blocks: 14
}
