package pmem

// Microbenchmarks of the simulated-NVMM substrate itself. The paper's
// methodology (Section 5) attributes throughput differences between
// configurations to persistence instructions; that attribution is only
// sound if the simulator's own per-operation overhead is small and, above
// all, does not itself create cross-thread cache traffic. These benchmarks
// measure the raw cost of every substrate operation under 1-16 goroutines
// so that simulator-overhead regressions show up directly (see the
// "Simulator overhead and calibration" section of DESIGN.md and the
// BENCH_pmem.json trajectory emitted by cmd/benchrunner -substrate).
//
// The benchmarks use only the exported API so the identical file can be
// run against older revisions for before/after comparisons. Each goroutine
// runs its whole share of b.N inside one call, so harness overhead per
// operation is a loop increment and a lane mask, nothing more.

import (
	"fmt"
	"sync"
	"testing"
)

// benchGoroutines is the sweep of simulated thread counts. The container
// this repo is benchmarked in may have a single CPU; the goroutines then
// time-share it, which still exposes per-operation overhead (the dominant
// cost on any host once simulator-induced cache-line sharing is gone).
var benchGoroutines = []int{1, 2, 4, 8, 16}

// benchLanes is the number of private cache lines each goroutine cycles
// through, keeping the working set L1-resident so the benchmark measures
// substrate overhead rather than DRAM.
const benchLanes = 16

// laneAddr spreads accesses over the goroutine's private lines.
func laneAddr(base Addr, i int) Addr {
	return base + Addr((i&(benchLanes-1))*LineBytes)
}

// runSubstrateBench partitions b.N over g goroutines, each with its own
// ThreadCtx and a private line-aligned region, and times body(ctx, base, n)
// which must perform n operations.
func runSubstrateBench(b *testing.B, mode Mode, g int, capWords int,
	body func(ctx *ThreadCtx, s Site, base Addr, n int)) {
	b.Helper()
	if capWords == 0 {
		capWords = 1 << 16
	}
	p := New(Config{Mode: mode, CapacityWords: capWords, MaxThreads: g + 1})
	s := p.RegisterSite("bench/site")
	ctxs := make([]*ThreadCtx, g)
	bases := make([]Addr, g)
	for t := 0; t < g; t++ {
		ctxs[t] = p.NewThread(t)
		bases[t] = ctxs[t].AllocLines(benchLanes)
	}
	per := b.N / g
	b.ResetTimer()
	var wg sync.WaitGroup
	for t := 0; t < g; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			n := per
			if t == 0 {
				n += b.N - per*g
			}
			body(ctxs[t], s, bases[t], n)
		}(t)
	}
	wg.Wait()
}

func BenchmarkLoad(b *testing.B) {
	for _, g := range benchGoroutines {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			runSubstrateBench(b, ModeFast, g, 0, func(ctx *ThreadCtx, _ Site, base Addr, n int) {
				for i := 0; i < n; i++ {
					ctx.Load(laneAddr(base, i))
				}
			})
		})
	}
}

func BenchmarkStore(b *testing.B) {
	for _, g := range benchGoroutines {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			runSubstrateBench(b, ModeFast, g, 0, func(ctx *ThreadCtx, _ Site, base Addr, n int) {
				for i := 0; i < n; i++ {
					ctx.Store(laneAddr(base, i), uint64(i))
				}
			})
		})
	}
}

func BenchmarkCAS(b *testing.B) {
	for _, g := range benchGoroutines {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			// Successful CAS chain on a private word (the common case in
			// the evaluated algorithms: CASes on freshly read values).
			runSubstrateBench(b, ModeFast, g, 0, func(ctx *ThreadCtx, _ Site, base Addr, n int) {
				for i := 0; i < n; i++ {
					ctx.CAS(base, uint64(i), uint64(i+1))
				}
			})
		})
	}
}

// BenchmarkCASMiss is the failing-CAS counterpart: every compare
// mismatches. Hardware charges the full locked read-modify-write on a
// mismatch, so this should cost the same as a succeeding CAS — if it is
// ever much cheaper, the simulator has started undercharging contended
// executions (e.g. via a test-and-test-and-set shortcut).
func BenchmarkCASMiss(b *testing.B) {
	for _, g := range benchGoroutines {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			runSubstrateBench(b, ModeFast, g, 0, func(ctx *ThreadCtx, _ Site, base Addr, n int) {
				for i := 0; i < n; i++ {
					ctx.CAS(base, ^uint64(0), 1)
				}
			})
		})
	}
}

// BenchmarkPWB flushes private (heat-0) lines: the Low-impact pwb class
// whose simulated cost should be the configured base cost plus nothing.
func BenchmarkPWB(b *testing.B) {
	for _, g := range benchGoroutines {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			runSubstrateBench(b, ModeFast, g, 0, func(ctx *ThreadCtx, s Site, base Addr, n int) {
				for i := 0; i < n; i++ {
					ctx.PWB(s, laneAddr(base, i))
				}
			})
		})
	}
}

// BenchmarkBatchedPWB is the same flush loop inside one write-combining
// epoch (the default bounds hold the whole lane set, so after the first
// pass over the lanes every flush merges): the per-operation cost left is
// the record point plus the dedup scan, which is the overhead batching
// itself adds on top of an eliminated charge.
func BenchmarkBatchedPWB(b *testing.B) {
	for _, g := range benchGoroutines {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			runSubstrateBench(b, ModeFast, g, 0, func(ctx *ThreadCtx, s Site, base Addr, n int) {
				ctx.BeginBatch(BatchConfig{})
				for i := 0; i < n; i++ {
					ctx.PWB(s, laneAddr(base, i))
				}
				ctx.EndBatch()
			})
		})
	}
}

// BenchmarkStrictPWB is the same flush loop under the exact durable view,
// with a PSync every 64 flushes to bound the pending write-back queue.
func BenchmarkStrictPWB(b *testing.B) {
	for _, g := range benchGoroutines {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			runSubstrateBench(b, ModeStrict, g, 0, func(ctx *ThreadCtx, s Site, base Addr, n int) {
				for i := 0; i < n; i++ {
					ctx.PWB(s, laneAddr(base, i))
					if i&63 == 63 {
						ctx.PSync()
					}
				}
				ctx.PSync()
			})
		})
	}
}

func BenchmarkPSync(b *testing.B) {
	for _, g := range benchGoroutines {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			runSubstrateBench(b, ModeFast, g, 0, func(ctx *ThreadCtx, _ Site, base Addr, n int) {
				for i := 0; i < n; i++ {
					ctx.PSync()
				}
			})
		})
	}
}

// BenchmarkFlushOp measures a full persisted update as the evaluated
// algorithms issue it: store, write back the line, sync.
func BenchmarkFlushOp(b *testing.B) {
	for _, g := range benchGoroutines {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			runSubstrateBench(b, ModeFast, g, 0, func(ctx *ThreadCtx, s Site, base Addr, n int) {
				for i := 0; i < n; i++ {
					a := laneAddr(base, i)
					ctx.Store(a, uint64(i))
					ctx.PWB(s, a)
					ctx.PSync()
				}
			})
		})
	}
}

// BenchmarkMixed models the substrate traffic of one lock-free structure
// operation: a short traversal (loads), an allocation every fourth op (as
// inserts do), a store, a CAS, and a flush+sync. This is the op mix whose
// measured cost must be dominated by the *modeled* persistence costs, not
// by simulator bookkeeping.
func BenchmarkMixed(b *testing.B) {
	for _, g := range benchGoroutines {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			capWords := 1<<16 + (b.N/4+1)*LineWords
			runSubstrateBench(b, ModeFast, g, capWords, func(ctx *ThreadCtx, s Site, base Addr, n int) {
				for i := 0; i < n; i++ {
					a := laneAddr(base, i)
					for k := 0; k < 8; k++ {
						ctx.Load(laneAddr(base, i+k))
					}
					if i&3 == 0 {
						nd := ctx.AllocLocal(LineWords)
						ctx.Store(nd, uint64(i))
						ctx.PWB(s, nd)
					}
					ctx.Store(a, uint64(i))
					ctx.CAS(a, uint64(i), uint64(i+1))
					ctx.PWB(s, a)
					ctx.PSync()
				}
			})
		})
	}
}

// BenchmarkAllocLocal measures the thread-local allocator (one global
// bump-pointer touch per chunk refill is the target behaviour).
func BenchmarkAllocLocal(b *testing.B) {
	for _, g := range benchGoroutines {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			capWords := 1<<16 + (b.N+1)*2 + g*2048
			runSubstrateBench(b, ModeFast, g, capWords, func(ctx *ThreadCtx, _ Site, base Addr, n int) {
				for i := 0; i < n; i++ {
					ctx.AllocLocal(2)
				}
			})
		})
	}
}

// BenchmarkPoolRecover measures Pool.Recover on a fully allocated 4 M-word
// strict pool with 1 % and 100 % of its lines written since the previous
// recovery. Rewriting the lines and resolving the crash run outside the
// timer; only the restart is timed.
func BenchmarkPoolRecover(b *testing.B) {
	const words = 4 << 20
	p := New(Config{Mode: ModeStrict, CapacityWords: words, MaxThreads: 1})
	base := p.NewThread(0).AllocWords(words - LineWords)
	lines := words/LineWords - 1
	for _, pct := range []int{1, 100} {
		b.Run(fmt.Sprintf("dirty=%d%%", pct), func(b *testing.B) {
			stride := 100 / pct
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ctx := p.NewThread(0)
				for l := 0; l < lines; l += stride {
					ctx.Store(base+Addr(l*LineBytes), uint64(i+1))
				}
				p.TriggerCrash()
				p.Crash(CrashPolicy{})
				b.StartTimer()
				p.Recover()
			}
		})
	}
}

// BenchmarkStrictFlushBurst measures ModeStrict capture cost for the
// flush-heavy pattern of the Capsules transform: several PWBs of the same
// line between fences. Duplicate-line write-backs should coalesce.
func BenchmarkStrictFlushBurst(b *testing.B) {
	for _, g := range benchGoroutines {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			runSubstrateBench(b, ModeStrict, g, 0, func(ctx *ThreadCtx, s Site, base Addr, n int) {
				for i := 0; i < n; i++ {
					a := laneAddr(base, i)
					for k := 0; k < 4; k++ {
						ctx.Store(a+Addr(k*WordSize), uint64(i+k))
						ctx.PWB(s, a)
					}
					ctx.PSync()
				}
			})
		})
	}
}
