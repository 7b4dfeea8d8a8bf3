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
// Two families of points are emitted:
//
//   - raw substrate operations (load/store/cas/pwb/psync/...) across a
//     goroutine sweep, plus "batched" variants of the flush-heavy ones
//     when a write-combining policy is requested; and
//   - structure commit paths at one goroutine — the redolog combiner, the
//     Romulus transaction commit, and the recoverable queue/stack op
//     loops — unbatched ("fast") versus under the ambient batch policy
//     ("batched"), with the executed flush and sync counts per operation
//     alongside wall-clock, so the win of cross-operation batching is
//     quantified in both instructions and nanoseconds.

import (
	"fmt"
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
	Mode       string  `json:"mode"` // "fast", "strict", "batched", or "flushavoid"
	Goroutines int     `json:"goroutines"`
	NsPerOp    float64 `json:"ns_per_op"`
	// PWBsPerOp and PSyncsPerOp are the *executed* persistence charges per
	// operation (recorded pwbs minus write-combining merges and minus
	// flush-avoidance elisions; syncs that actually ran). Omitted when the
	// operation issues none.
	PWBsPerOp   float64 `json:"pwbs_per_op,omitempty"`
	PSyncsPerOp float64 `json:"psyncs_per_op,omitempty"`
	// PWBsElidedPerOp counts the recorded write-backs flush avoidance
	// skipped per operation (dirty-tag first-observer dedup plus memo
	// hits). Nonzero only for mode:"flushavoid" points.
	PWBsElidedPerOp float64 `json:"pwbs_elided_per_op,omitempty"`
}

// SubstrateReport is the full substrate measurement, as serialized into
// BENCH_pmem.json.
type SubstrateReport struct {
	// SpinUnitNs is the measured wall-clock cost of one abstract spin
	// unit, relating the fast-mode cost model to nanoseconds on this host.
	SpinUnitNs float64 `json:"spin_unit_ns"`
	// BatchOps is the ambient write-combining policy the "batched" points
	// ran under (operations per group sync); 0 when none were measured.
	BatchOps int              `json:"batch_ops,omitempty"`
	Points   []SubstratePoint `json:"points"`
}

// substrateLanes matches the bench_test.go working set: each goroutine
// cycles through this many private cache lines, keeping the benchmark
// L1-resident.
const substrateLanes = 16

// substrateOp is one benchmarkable substrate operation.
type substrateOp struct {
	name  string
	mode  pmem.Mode
	batch bool // run under the ambient write-combining policy
	body  func(ctx *pmem.ThreadCtx, s pmem.Site, base pmem.Addr, n int)
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
		{name: "pwb", mode: pmem.ModeFast, body: pwbLoop},
		{name: "psync", mode: pmem.ModeFast, body: func(ctx *pmem.ThreadCtx, _ pmem.Site, base pmem.Addr, n int) {
			for i := 0; i < n; i++ {
				ctx.PSync()
			}
		}},
		{name: "flushop", mode: pmem.ModeFast, body: flushOpLoop},
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

func pwbLoop(ctx *pmem.ThreadCtx, s pmem.Site, base pmem.Addr, n int) {
	for i := 0; i < n; i++ {
		ctx.PWB(s, laneOf(base, i))
	}
}

func flushOpLoop(ctx *pmem.ThreadCtx, s pmem.Site, base pmem.Addr, n int) {
	for i := 0; i < n; i++ {
		a := laneOf(base, i)
		ctx.Store(a, uint64(i))
		ctx.PWB(s, a)
		ctx.PSync()
	}
}

// batchedOps are the flush-heavy raw operations re-run under the ambient
// write-combining policy: "pwb" shows pure duplicate-line merging (the
// lane set fits the buffer, so only the first flush of each lane is ever
// charged), "flushop" shows group-psync amortization on an op loop whose
// lines are mostly distinct.
func batchedOps() []substrateOp {
	return []substrateOp{
		{name: "pwb", mode: pmem.ModeFast, batch: true, body: pwbLoop},
		{name: "flushop", mode: pmem.ModeFast, batch: true, body: flushOpLoop},
	}
}

// Substrate measures every substrate operation at each concurrency level,
// opsPerPoint operations per data point (0 picks a default), without any
// batched points. Equivalent to SubstrateBatch(goroutines, opsPerPoint, 0).
func Substrate(goroutines []int, opsPerPoint int) SubstrateReport {
	return SubstrateBatch(goroutines, opsPerPoint, 0)
}

// SubstrateBatch additionally measures, when batchOps > 0, the batched
// variants of the flush-heavy operations and the batched structure commit
// paths, under an ambient policy of batchOps operations per group sync.
func SubstrateBatch(goroutines []int, opsPerPoint, batchOps int) SubstrateReport {
	if len(goroutines) == 0 {
		goroutines = []int{1, 2, 4, 8, 16}
	}
	if opsPerPoint <= 0 {
		opsPerPoint = 2_000_000
	}
	rep := SubstrateReport{SpinUnitNs: pmem.CalibrateSpin(), BatchOps: batchOps}
	ops := substrateOps()
	if batchOps > 0 {
		ops = append(ops, batchedOps()...)
	}
	for _, op := range ops {
		for _, g := range goroutines {
			rep.Points = append(rep.Points, runSubstrateOp(op, g, opsPerPoint, batchOps))
		}
	}
	rep.Points = append(rep.Points, commitPathPoints(opsPerPoint, batchOps)...)
	rep.Points = append(rep.Points, flushAvoidPoints(goroutines, opsPerPoint)...)
	rep.Points = append(rep.Points, allocChurnPoints(goroutines, opsPerPoint)...)
	return rep
}

func modeName(m pmem.Mode) string {
	if m == pmem.ModeStrict {
		return "strict"
	}
	return "fast"
}

// batchPolicy is the ambient policy every batched measurement installs:
// batchOps operations per group sync, a line buffer sized to hold a few
// operations' worth of distinct lines.
func batchPolicy(batchOps int) pmem.BatchConfig {
	return pmem.BatchConfig{MaxOps: batchOps, MaxLines: 4 * batchOps}
}

// runSubstrateOp partitions total operations over g goroutines, each with
// a private ThreadCtx and line-aligned region, and times the whole batch.
func runSubstrateOp(op substrateOp, g, total, batchOps int) SubstratePoint {
	p := pmem.New(pmem.Config{Mode: op.mode, CapacityWords: 1 << 16, MaxThreads: g + 1})
	s := p.RegisterSite("substrate/" + op.name)
	if op.batch {
		p.SetBatchPolicy(batchPolicy(batchOps))
	}
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
			if op.batch {
				// The trailing drain is part of the batched cost.
				ctxs[t].Retire()
			}
		}(t)
	}
	wg.Wait()
	ns := float64(time.Since(start).Nanoseconds()) / float64(total)
	mode := modeName(op.mode)
	if op.batch {
		mode = "batched"
	}
	return statPoint(op.name, mode, g, ns, p.Snapshot().Sub(base), total)
}

// statPoint folds a stats delta into a SubstratePoint, reporting executed
// (post-merge, post-elision) persistence charges per operation.
func statPoint(name, mode string, g int, ns float64, st pmem.Stats, total int) SubstratePoint {
	return SubstratePoint{
		Op: name, Mode: mode, Goroutines: g, NsPerOp: ns,
		PWBsPerOp:       float64(st.PWBs-st.PWBsMerged-st.PWBsElided) / float64(total),
		PSyncsPerOp:     float64(st.PSyncs) / float64(total),
		PWBsElidedPerOp: float64(st.PWBsElided) / float64(total),
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
// goroutine: always unbatched, and additionally under the ambient
// write-combining policy when batchOps > 0.
func commitPathPoints(opsPerPoint, batchOps int) []SubstratePoint {
	n := commitPathOps(opsPerPoint)
	paths := []struct {
		name  string
		setup func(p *pmem.Pool, ctx *pmem.ThreadCtx, batchOps int) func(i, total int)
	}{
		{"redolog-commit", setupRedologCommit},
		{"romulus-commit", setupRomulusCommit},
		{"rqueue-enqdeq", setupRQueueOps},
		{"rstack-pushpop", setupRStackOps},
	}
	var pts []SubstratePoint
	for _, path := range paths {
		pts = append(pts, measureCommitPath(path.name, n, 0, path.setup))
		if batchOps > 0 {
			pts = append(pts, measureCommitPath(path.name, n, batchOps, path.setup))
		}
	}
	return pts
}

// measureCommitPath builds one structure on a fresh fast-mode pool,
// optionally installs the ambient batch policy, and times total single-
// thread operations (construction and preloading excluded from both the
// clock and the counters).
func measureCommitPath(name string, total, batchOps int,
	setup func(p *pmem.Pool, ctx *pmem.ThreadCtx, batchOps int) func(i, total int)) SubstratePoint {
	p := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 21, MaxThreads: 2})
	ctx := p.NewThread(1)
	body := setup(p, ctx, batchOps)
	if batchOps > 0 {
		p.SetBatchPolicy(batchPolicy(batchOps))
	}
	base := p.Snapshot()
	start := time.Now()
	for i := 0; i < total; i++ {
		body(i, total)
	}
	ctx.Retire()
	ns := float64(time.Since(start).Nanoseconds()) / float64(total)
	mode := "fast"
	if batchOps > 0 {
		mode = "batched"
	}
	return statPoint(name, mode, 1, ns, p.Snapshot().Sub(base), total)
}

// Flush-avoidance points: the contended tracking-hash update mix the
// tentpole targets, measured with the feature off ("fast") and on
// ("flushavoid") across the goroutine sweep. The mix is the paper's
// update-intensive split (30% find, the rest even insert/delete) over a
// small key range on a narrow map, so threads collide on buckets and the
// tracking engine's helper, backtrack and repeated same-line persists —
// exactly the flushes link-and-persist tagging and the per-thread memo
// elide — dominate. BENCH_pmem.json pins the win as executed pwbs per
// operation: mode:"flushavoid" must sit well below mode:"fast" at equal
// goroutine counts (CheckFlushAvoid is the gate).
const (
	faHashBuckets  = 8
	faHashKeyRange = 64
	faHashFindPct  = 30
)

func flushAvoidPoints(goroutines []int, opsPerPoint int) []SubstratePoint {
	n := commitPathOps(opsPerPoint)
	var pts []SubstratePoint
	for _, fa := range []bool{false, true} {
		for _, g := range goroutines {
			pts = append(pts, runTrackingHashPoint(g, n, fa))
		}
	}
	return pts
}

// runTrackingHashPoint times total update-mix operations over a tracking
// hash map at g goroutines, with or without flush avoidance.
func runTrackingHashPoint(g, total int, flushAvoid bool) SubstratePoint {
	p, m := newTrackingHash(g, flushAvoid)
	per := total / g
	base := p.Snapshot()
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < g; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := m.Handle(p.NewThread(t + 1))
			next := faHashOps(t)
			n := per
			if t == 0 {
				n += total - per*g
			}
			for i := 0; i < n; i++ {
				runFAHashOp(h, next())
				runtime.Gosched()
			}
		}(t)
	}
	wg.Wait()
	ns := float64(time.Since(start).Nanoseconds()) / float64(total)
	mode := "fast"
	if flushAvoid {
		mode = "flushavoid"
	}
	return statPoint("tracking-hash-update", mode, g, ns, p.Snapshot().Sub(base), total)
}

// newTrackingHash builds the narrow tracking hash map of the update mix
// for g worker threads (ids 1..g).
func newTrackingHash(g int, flushAvoid bool) (*pmem.Pool, *rhash.Map) {
	p := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 21, MaxThreads: g + 1})
	if flushAvoid {
		p.SetFlushAvoid(true)
	}
	return p, rhash.New(p, faHashBuckets, g+1, 0)
}

// faHashOps returns worker t's (0-based) stream of update-mix operations.
// The stream depends only on t, so every measurement of the mix, timed or
// counted, issues the same operations.
func faHashOps(t int) func() chaos.Op {
	rng := rand.New(rand.NewSource(int64(0x9e37*t + 1)))
	return func() chaos.Op {
		key := rng.Int63n(faHashKeyRange) + 1
		switch {
		case rng.Intn(100) < faHashFindPct:
			return chaos.Op{Kind: chaos.KindFind, Key: key}
		case rng.Intn(2) == 0:
			return chaos.Op{Kind: chaos.KindInsert, Key: key}
		default:
			return chaos.Op{Kind: chaos.KindDelete, Key: key}
		}
	}
}

func runFAHashOp(h *rhash.Handle, op chaos.Op) {
	switch op.Kind {
	case chaos.KindFind:
		h.Find(op.Key)
	case chaos.KindInsert:
		h.Insert(op.Key)
	default:
		h.Delete(op.Key)
	}
}

// The flush-avoidance gate measures the update mix at every goroutine
// count in faGatePWBs, with and without flush avoidance, counting the pwbs
// executed rather than timing them. The threads run in lockstep
// (chaos.Schedule.Lockstep): one at a time, passing the turn at each
// persistence instruction, so every count is exact on every host and the
// gate needs no noise margin. At each goroutine count the flush-avoided
// run must execute at most the committed count — any increase is a
// regression — and at least faMinCutPct percent fewer pwbs than the run
// without flush avoidance. The timed mode:"flushavoid" points of the
// substrate report are the artifact, not the gate: free-running
// interleavings move their cut by several points from run to run
// (EXPERIMENTS.md, "Flush avoidance").
const (
	// faGateOps is the op count of each gate measurement, split evenly
	// over the goroutines: the tracking-hash point of a -substrate-ops
	// 300000 run, the scale make bench-flushavoid runs at.
	faGateOps = 3_000
	// faMinCutPct is the least executed-pwbs cut, in percent, flush
	// avoidance must show at every goroutine count of the gate.
	faMinCutPct = 20
)

// faGatePWBs lists the goroutine counts the gate measures, each with the
// committed number of pwbs its flush-avoided run executes.
var faGatePWBs = []struct {
	goroutines int
	pwbs       uint64
}{{1, 9_280}, {2, 10_327}, {4, 11_183}, {8, 12_724}, {16, 13_868}}

// gateThread drives one tracking-hash handle through a lockstep gate
// schedule. The mix never invokes a checkpoint (as in the timed points)
// and the gate never crashes, so Recover is unreachable.
type gateThread struct{ h *rhash.Handle }

func (gateThread) Invoke()                    {}
func (g gateThread) Run(op chaos.Op) uint64   { runFAHashOp(g.h, op); return 0 }
func (gateThread) Recover(op chaos.Op) uint64 { panic("bench: flush-avoidance gate run crashed") }

// gatePWBs runs faGateOps update-mix operations over g lockstep
// goroutines and returns the number of pwbs executed.
func gatePWBs(g int, flushAvoid bool) uint64 {
	p, m := newTrackingHash(g, flushAvoid)
	streams := make(map[int]func() chaos.Op, g)
	s := chaos.NewSchedule(g, faGateOps/g, 0, func(_ *rand.Rand, tid, _ int) chaos.Op {
		if streams[tid] == nil {
			streams[tid] = faHashOps(tid - 1)
		}
		return streams[tid]()
	})
	s.Lockstep(p, nil)
	base := p.Snapshot()
	err := s.Resume(func(tid int) (chaos.Thread, error) {
		return gateThread{m.Handle(p.NewThread(tid))}, nil
	})
	if err != nil {
		panic(err)
	}
	st := p.Snapshot().Sub(base)
	return st.PWBs - st.PWBsMerged - st.PWBsElided
}

// CheckFlushAvoid runs the flush-avoidance gate. It returns an error
// naming the first goroutine count whose flush-avoided run executes more
// pwbs than committed or cuts less than faMinCutPct percent of the run
// without flush avoidance.
func CheckFlushAvoid() error {
	for _, c := range faGatePWBs {
		g := c.goroutines
		if err := checkFlushAvoid(g, c.pwbs, gatePWBs(g, false), gatePWBs(g, true)); err != nil {
			return err
		}
	}
	return nil
}

// checkFlushAvoid applies the gate's two rules to the pwbs executed at g
// goroutines without (fast) and with (fa) flush avoidance.
func checkFlushAvoid(g int, committed, fast, fa uint64) error {
	if fa > committed {
		return fmt.Errorf(
			"flush avoidance gate: tracking-hash-update g=%d executed %d pwbs, committed %d",
			g, fa, committed)
	}
	if 100*fa > (100-faMinCutPct)*fast {
		return fmt.Errorf(
			"flush avoidance gate: tracking-hash-update g=%d executed %d pwbs vs %d without flush avoidance (%.1f%% cut, need >= %d%%)",
			g, fa, fast, 100*(1-float64(fa)/float64(fast)), faMinCutPct)
	}
	return nil
}

// commitKeys keeps the commit-path structures small and the op mix an
// even insert/delete split, so the cost measured is the commit protocol,
// not the traversal.
const commitKeys = 128

func setupRedologCommit(p *pmem.Pool, ctx *pmem.ThreadCtx, _ int) func(i, total int) {
	s := redolog.New(p, 4096, 2, 0)
	h := s.Handle(ctx)
	return func(i, _ int) {
		k := int64(i % commitKeys)
		if i&1 == 0 {
			h.Insert(k)
		} else {
			h.Delete(k)
		}
	}
}

// setupRomulusCommit drives the TM list per-op when unbatched and in
// ApplyGroup groups of batchOps under the policy — the group commit runs
// one lock/state cycle and one write-combining epoch for the whole group.
func setupRomulusCommit(p *pmem.Pool, ctx *pmem.ThreadCtx, batchOps int) func(i, total int) {
	tm := romulus.NewTM(p, 1<<16, 2, 0)
	l := romulus.NewList(tm, p.NewThread(0))
	if batchOps <= 0 {
		return func(i, _ int) {
			k := int64(i % commitKeys)
			seq := tm.Invoke(ctx)
			if i&1 == 0 {
				l.Insert(ctx, seq, k)
			} else {
				l.Delete(ctx, seq, k)
			}
		}
	}
	pending := make([]romulus.GroupOp, 0, batchOps)
	return func(i, total int) {
		pending = append(pending, romulus.GroupOp{
			Seq:    tm.Invoke(ctx),
			Key:    int64(i % commitKeys),
			Delete: i&1 == 1,
		})
		if len(pending) == batchOps || i == total-1 {
			l.ApplyGroup(ctx, pending)
			pending = pending[:0]
		}
	}
}

func setupRQueueOps(p *pmem.Pool, ctx *pmem.ThreadCtx, _ int) func(i, total int) {
	q := rqueue.New(p, 2, 0)
	h := q.Handle(ctx)
	return func(i, _ int) {
		if i&1 == 0 {
			h.Enqueue(uint64(i))
		} else {
			h.Dequeue()
		}
	}
}

func setupRStackOps(p *pmem.Pool, ctx *pmem.ThreadCtx, _ int) func(i, total int) {
	s := rstack.New(p, 2, 0)
	h := s.Handle(ctx)
	return func(i, _ int) {
		if i&1 == 0 {
			h.Push(uint64(i))
		} else {
			h.Pop()
		}
	}
}
