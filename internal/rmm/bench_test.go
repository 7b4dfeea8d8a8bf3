package rmm

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/pmem"
)

// BenchmarkAllocFree times steady allocator churn at 50 % occupancy on a
// fast pool, at g = 1 and 2 goroutines with a handle each, and reports
// the executed pwbs and psyncs per op from Pool.Snapshot deltas. One op
// is one Free plus one Alloc. Each goroutine frees its 2*flushBlocks
// oldest live blocks, then allocates as many, so its free buffer flushes
// and its cache refills every round, as they do whenever frees and
// allocations do not strictly alternate; a strictly alternating pair
// reuses its own free and touches nothing shared. The blocks are
// kv-update-heavy's 4-word value blocks, in one 1024-block chunk.
func BenchmarkAllocFree(b *testing.B) {
	const blocks, round = 1024, 2 * flushBlocks
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			pool := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 14, MaxThreads: g + 1})
			a := New(pool, 4, blocks, 0)
			hs := make([]*Handle, g)
			live := make([][]pmem.Addr, g)
			for t := range hs {
				hs[t] = a.Handle(pool.NewThread(t + 1))
				live[t] = make([]pmem.Addr, blocks/2/g)
				for i := range live[t] {
					live[t][i] = hs[t].Alloc()
				}
			}
			base := pool.Snapshot()
			b.ResetTimer()
			var wg sync.WaitGroup
			for t := range hs {
				n := b.N / g
				if t == 0 {
					n += b.N % g
				}
				wg.Add(1)
				go func(h *Handle, live []pmem.Addr, n int) {
					defer wg.Done()
					pos := 0
					for done := 0; done < n; done += round {
						m := min(round, n-done)
						for i := 0; i < m; i++ {
							if err := h.Free(live[(pos+i)%len(live)]); err != nil {
								b.Error(err)
								return
							}
						}
						for i := 0; i < m; i++ {
							if live[(pos+i)%len(live)] = h.Alloc(); live[(pos+i)%len(live)] == pmem.Null {
								b.Error("allocator exhausted at 50 % occupancy")
								return
							}
						}
						pos = (pos + m) % len(live)
					}
				}(hs[t], live[t], n)
			}
			wg.Wait()
			b.StopTimer()
			st := pool.Snapshot().Sub(base)
			b.ReportMetric(float64(st.PWBsExecuted)/float64(b.N), "pwbs/op")
			b.ReportMetric(float64(st.PSyncs)/float64(b.N), "psyncs/op")
		})
	}
}
