package bench

// Substrate microbenchmarks: the raw per-operation cost of the simulated
// NVMM itself, measured through the same exported API the structures use.
// The paper's evaluation attributes throughput differences between
// configurations to persistence instructions; that attribution is only
// sound when the simulator's own overhead is small and free of
// simulator-induced contention, so the benchrunner records these numbers
// (BENCH_pmem.json) alongside every structure benchmark. The same loops
// exist as testing.B benchmarks in internal/pmem/bench_test.go; this
// exported harness is for trend tracking from CI.
//
// Three families of points are emitted:
//
//   - raw substrate operations (load/store/cas/pwb/psync/...) across a
//     goroutine sweep;
//   - structure commit paths at one goroutine — the redolog combiner, the
//     Romulus transaction commit, and the recoverable queue/stack op
//     loops — with the executed flush and sync counts per operation
//     alongside wall-clock; and
//   - the contended tracking-hash update mix across the goroutine sweep.

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/pmem"
	"repro/internal/redolog"
	"repro/internal/rhash"
	"repro/internal/romulus"
	"repro/internal/rqueue"
	"repro/internal/rstack"
)

// SubstratePoint is the measured cost of one substrate operation at one
// concurrency level.
type SubstratePoint struct {
	Op         string  `json:"op"`
	Mode       string  `json:"mode"` // "fast" or "strict"
	Goroutines int     `json:"goroutines"`
	NsPerOp    float64 `json:"ns_per_op"`
	// PWBsPerOp and PSyncsPerOp are the executed persistence instructions
	// per operation. Omitted when the operation issues none.
	PWBsPerOp   float64 `json:"pwbs_per_op,omitempty"`
	PSyncsPerOp float64 `json:"psyncs_per_op,omitempty"`
}

// SubstrateReport is the full substrate measurement, as serialized into
// BENCH_pmem.json.
type SubstrateReport struct {
	// SpinUnitNs is the measured wall-clock cost of one abstract spin
	// unit, relating the fast-mode cost model to nanoseconds on this host.
	SpinUnitNs float64          `json:"spin_unit_ns"`
	Points     []SubstratePoint `json:"points"`
}

// substrateLanes matches the bench_test.go working set: each goroutine
// cycles through this many private cache lines, keeping the benchmark
// L1-resident.
const substrateLanes = 16

// substrateOp is one benchmarkable substrate operation.
type substrateOp struct {
	name string
	mode pmem.Mode
	body func(ctx *pmem.ThreadCtx, s pmem.Site, base pmem.Addr, n int)
}

func laneOf(base pmem.Addr, i int) pmem.Addr {
	return base + pmem.Addr((i&(substrateLanes-1))*pmem.LineBytes)
}

func substrateOps() []substrateOp {
	return []substrateOp{
		{name: "load", mode: pmem.ModeFast, body: func(ctx *pmem.ThreadCtx, _ pmem.Site, base pmem.Addr, n int) {
			for i := 0; i < n; i++ {
				ctx.Load(laneOf(base, i))
			}
		}},
		{name: "store", mode: pmem.ModeFast, body: func(ctx *pmem.ThreadCtx, _ pmem.Site, base pmem.Addr, n int) {
			for i := 0; i < n; i++ {
				ctx.Store(laneOf(base, i), uint64(i))
			}
		}},
		{name: "cas", mode: pmem.ModeFast, body: func(ctx *pmem.ThreadCtx, _ pmem.Site, base pmem.Addr, n int) {
			for i := 0; i < n; i++ {
				ctx.CAS(base, uint64(i), uint64(i+1))
			}
		}},
		{name: "pwb", mode: pmem.ModeFast, body: func(ctx *pmem.ThreadCtx, s pmem.Site, base pmem.Addr, n int) {
			for i := 0; i < n; i++ {
				ctx.PWB(s, laneOf(base, i))
			}
		}},
		{name: "psync", mode: pmem.ModeFast, body: func(ctx *pmem.ThreadCtx, _ pmem.Site, base pmem.Addr, n int) {
			for i := 0; i < n; i++ {
				ctx.PSync()
			}
		}},
		{name: "flushop", mode: pmem.ModeFast, body: func(ctx *pmem.ThreadCtx, s pmem.Site, base pmem.Addr, n int) {
			for i := 0; i < n; i++ {
				a := laneOf(base, i)
				ctx.Store(a, uint64(i))
				ctx.PWB(s, a)
				ctx.PSync()
			}
		}},
		{name: "strict-pwb", mode: pmem.ModeStrict, body: func(ctx *pmem.ThreadCtx, s pmem.Site, base pmem.Addr, n int) {
			for i := 0; i < n; i++ {
				ctx.PWB(s, laneOf(base, i))
				if i&63 == 63 {
					ctx.PSync()
				}
			}
			ctx.PSync()
		}},
	}
}

// Substrate measures every substrate operation at each concurrency level,
// opsPerPoint operations per data point (0 picks a default).
func Substrate(goroutines []int, opsPerPoint int) SubstrateReport {
	if len(goroutines) == 0 {
		goroutines = []int{1, 2, 4, 8, 16}
	}
	if opsPerPoint <= 0 {
		opsPerPoint = 2_000_000
	}
	rep := SubstrateReport{SpinUnitNs: pmem.CalibrateSpin()}
	for _, op := range substrateOps() {
		for _, g := range goroutines {
			rep.Points = append(rep.Points, runSubstrateOp(op, g, opsPerPoint))
		}
	}
	rep.Points = append(rep.Points, commitPathPoints(opsPerPoint)...)
	rep.Points = append(rep.Points, hashMixPoints(goroutines, opsPerPoint)...)
	return rep
}

func modeName(m pmem.Mode) string {
	if m == pmem.ModeStrict {
		return "strict"
	}
	return "fast"
}

// runSubstrateOp partitions total operations over g goroutines, each with
// a private ThreadCtx and line-aligned region, and times the whole batch.
func runSubstrateOp(op substrateOp, g, total int) SubstratePoint {
	p := pmem.New(pmem.Config{Mode: op.mode, CapacityWords: 1 << 16, MaxThreads: g + 1})
	s := p.RegisterSite("substrate/" + op.name)
	ctxs := make([]*pmem.ThreadCtx, g)
	bases := make([]pmem.Addr, g)
	for t := 0; t < g; t++ {
		ctxs[t] = p.NewThread(t)
		bases[t] = ctxs[t].AllocLines(substrateLanes)
	}
	per := total / g
	base := p.Snapshot()
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < g; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			n := per
			if t == 0 {
				n += total - per*g
			}
			op.body(ctxs[t], s, bases[t], n)
		}(t)
	}
	wg.Wait()
	ns := float64(time.Since(start).Nanoseconds()) / float64(total)
	return statPoint(op.name, modeName(op.mode), g, ns, p.Snapshot().Sub(base), total)
}

// statPoint folds a stats delta into a SubstratePoint, reporting executed
// persistence instructions per operation.
func statPoint(name, mode string, g int, ns float64, st pmem.Stats, total int) SubstratePoint {
	return SubstratePoint{
		Op: name, Mode: mode, Goroutines: g, NsPerOp: ns,
		PWBsPerOp:   float64(st.PWBs) / float64(total),
		PSyncsPerOp: float64(st.PSyncs) / float64(total),
	}
}

// commitPathOps bounds the structure commit-path measurements: the full
// commit protocols cost hundreds of simulated spin units per operation, so
// they run a fraction of the raw-op count.
func commitPathOps(opsPerPoint int) int {
	n := opsPerPoint / 100
	if n < 1_000 {
		n = 1_000
	}
	if n > 50_000 {
		n = 50_000
	}
	return n
}

// commitPathPoints measures the end-to-end structure commit paths at one
// goroutine.
func commitPathPoints(opsPerPoint int) []SubstratePoint {
	n := commitPathOps(opsPerPoint)
	paths := []struct {
		name  string
		setup func(p *pmem.Pool, ctx *pmem.ThreadCtx) func(i int)
	}{
		{"redolog-commit", setupRedologCommit},
		{"romulus-commit", setupRomulusCommit},
		{"rqueue-enqdeq", setupRQueueOps},
		{"rstack-pushpop", setupRStackOps},
	}
	var pts []SubstratePoint
	for _, path := range paths {
		pts = append(pts, measureCommitPath(path.name, n, path.setup))
	}
	return pts
}

// measureCommitPath builds one structure on a fresh fast-mode pool and
// times total single-thread operations (construction and preloading
// excluded from both the clock and the counters).
func measureCommitPath(name string, total int, setup func(p *pmem.Pool, ctx *pmem.ThreadCtx) func(i int)) SubstratePoint {
	p := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 21, MaxThreads: 2})
	ctx := p.NewThread(1)
	body := setup(p, ctx)
	base := p.Snapshot()
	start := time.Now()
	for i := 0; i < total; i++ {
		body(i)
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(total)
	return statPoint(name, "fast", 1, ns, p.Snapshot().Sub(base), total)
}

// Tracking-hash points: the contended tracking-hash update mix across the
// goroutine sweep. The mix is the paper's update-intensive split (30%
// find, the rest even insert/delete) over a small key range on a narrow
// map, so threads collide on buckets and the tracking engine's helper,
// backtrack and repeated same-line persists dominate. The same mix, run
// in lockstep, pins exact contended pwb counts (TestHashMixPWBGolden).
const (
	hashMixBuckets  = 8
	hashMixKeyRange = 64
	hashMixFindPct  = 30
)

func hashMixPoints(goroutines []int, opsPerPoint int) []SubstratePoint {
	n := commitPathOps(opsPerPoint)
	pts := make([]SubstratePoint, 0, len(goroutines))
	for _, g := range goroutines {
		pts = append(pts, runHashMixPoint(g, n))
	}
	return pts
}

// runHashMixPoint times total update-mix operations over a tracking hash
// map at g goroutines.
func runHashMixPoint(g, total int) SubstratePoint {
	p, m := newHashMix(g)
	per := total / g
	base := p.Snapshot()
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < g; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := m.Handle(p.NewThread(t + 1))
			next := hashMixOps(t)
			n := per
			if t == 0 {
				n += total - per*g
			}
			for i := 0; i < n; i++ {
				runHashMixOp(h, next())
				runtime.Gosched()
			}
		}(t)
	}
	wg.Wait()
	ns := float64(time.Since(start).Nanoseconds()) / float64(total)
	return statPoint("tracking-hash-update", "fast", g, ns, p.Snapshot().Sub(base), total)
}

// newHashMix builds the narrow tracking hash map of the update mix for g
// worker threads (ids 1..g).
func newHashMix(g int) (*pmem.Pool, *rhash.Map) {
	p := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 21, MaxThreads: g + 1})
	return p, rhash.New(p, hashMixBuckets, g+1, 0)
}

// hashMixOps returns worker t's (0-based) stream of update-mix operations.
// The stream depends only on t, so every measurement of the mix, timed or
// counted, issues the same operations.
func hashMixOps(t int) func() chaos.Op {
	rng := rand.New(rand.NewSource(int64(0x9e37*t + 1)))
	return func() chaos.Op {
		key := rng.Int63n(hashMixKeyRange) + 1
		switch {
		case rng.Intn(100) < hashMixFindPct:
			return chaos.Op{Kind: chaos.KindFind, Key: key}
		case rng.Intn(2) == 0:
			return chaos.Op{Kind: chaos.KindInsert, Key: key}
		default:
			return chaos.Op{Kind: chaos.KindDelete, Key: key}
		}
	}
}

func runHashMixOp(h *rhash.Handle, op chaos.Op) {
	switch op.Kind {
	case chaos.KindFind:
		h.Find(op.Key)
	case chaos.KindInsert:
		h.Insert(op.Key)
	default:
		h.Delete(op.Key)
	}
}

// commitKeys keeps the commit-path structures small and the op mix an
// even insert/delete split, so the cost measured is the commit protocol,
// not the traversal.
const commitKeys = 128

func setupRedologCommit(p *pmem.Pool, ctx *pmem.ThreadCtx) func(i int) {
	s := redolog.New(p, 4096, 2, 0)
	h := s.Handle(ctx)
	return func(i int) {
		k := int64(i % commitKeys)
		if i&1 == 0 {
			h.Insert(k)
		} else {
			h.Delete(k)
		}
	}
}

func setupRomulusCommit(p *pmem.Pool, ctx *pmem.ThreadCtx) func(i int) {
	tm := romulus.NewTM(p, 1<<16, 2, 0)
	l := romulus.NewList(tm, p.NewThread(0))
	return func(i int) {
		k := int64(i % commitKeys)
		seq := tm.Invoke(ctx)
		if i&1 == 0 {
			l.Insert(ctx, seq, k)
		} else {
			l.Delete(ctx, seq, k)
		}
	}
}

func setupRQueueOps(p *pmem.Pool, ctx *pmem.ThreadCtx) func(i int) {
	q := rqueue.New(p, 2, 0)
	h := q.Handle(ctx)
	return func(i int) {
		if i&1 == 0 {
			h.Enqueue(uint64(i))
		} else {
			h.Dequeue()
		}
	}
}

func setupRStackOps(p *pmem.Pool, ctx *pmem.ThreadCtx) func(i int) {
	s := rstack.New(p, 2, 0)
	h := s.Handle(ctx)
	return func(i int) {
		if i&1 == 0 {
			h.Push(uint64(i))
		} else {
			h.Pop()
		}
	}
}
