package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/pmem"
	"repro/internal/rhash"
)

// paperGoldenOps is the golden runs' operation count: enough for every
// operation kind to recur hundreds of times, small enough for tier-1.
const paperGoldenOps = 20000

// paperGolden pins the persistence-instruction totals of one figure series
// (Figures 3b/3d and 4b/4d) measured by a single worker over
// paperGoldenOps operations at seed 1. One worker makes the run
// deterministic, so the totals must match exactly: a change that moves
// them changes what the paper-figure experiments reproduce.
type paperGolden struct {
	algo     Algo
	mix      string
	w        Workload
	pwbs     uint64 // executed pwbs (Figures 3d/4d)
	barriers uint64 // psyncs + pfences (Figures 3b/4b)
}

func (g paperGolden) run(t *testing.T) (pwbs, barriers uint64) {
	t.Helper()
	r, err := Prepare(Config{Algo: g.algo, Threads: 1, Workload: g.w, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := r.RunOps(paperGoldenOps); n != paperGoldenOps {
		t.Fatalf("%s %s: ran %d ops, want %d", g.algo, g.mix, n, paperGoldenOps)
	}
	st := r.Stats()
	return st.PWBs, st.PSyncs + st.PFences
}

// TestPaperFigureGolden is the paper golden: the figure configurations'
// per-operation counts for Tracking and Capsules-Opt on both of the
// paper's mixes, and the paper's ordering between them (Tracking executes
// more pwbs and more psync+pfence per operation than Capsules-Opt).
func TestPaperFigureGolden(t *testing.T) {
	read, update := ReadIntensive(), UpdateIntensive()
	goldens := []paperGolden{
		{AlgoTracking, "read", read, 140066, 88958},
		{AlgoCapsulesOpt, "read", read, 128958, 85972},
		{AlgoTracking, "update", update, 177068, 100961},
		{AlgoCapsulesOpt, "update", update, 140961, 93974},
	}
	perOp := func(n uint64) float64 { return float64(n) / paperGoldenOps }
	got := map[string][2]uint64{}
	for _, g := range goldens {
		pwbs, barriers := g.run(t)
		t.Logf("%s %s: %d pwbs (%.3f/op), %d psync+pfence (%.3f/op)",
			g.algo, g.mix, pwbs, perOp(pwbs), barriers, perOp(barriers))
		if pwbs != g.pwbs || barriers != g.barriers {
			t.Errorf("%s %s: %d pwbs, %d psync+pfence; golden %d, %d",
				g.algo, g.mix, pwbs, barriers, g.pwbs, g.barriers)
		}
		got[string(g.algo)+"/"+g.mix] = [2]uint64{pwbs, barriers}
	}
	for _, mix := range []string{"read", "update"} {
		tr, opt := got[string(AlgoTracking)+"/"+mix], got[string(AlgoCapsulesOpt)+"/"+mix]
		if tr[0] <= opt[0] || tr[1] <= opt[1] {
			t.Errorf("%s mix: Tracking %v not above Capsules-Opt %v on both counts (pwbs, psync+pfence)", mix, tr, opt)
		}
	}
}

// The contended tracking-hash update mix: the paper's update-intensive
// split (30% find, the rest even insert/delete) over a small key range on
// a narrow map, so threads collide on buckets and the tracking engine's
// helper, backtrack and repeated same-line persists dominate.
// BenchmarkHashMixUpdate times it free-running; run in lockstep, it pins
// exact contended pwb counts (TestHashMixPWBGolden).
const (
	hashMixBuckets  = 8
	hashMixKeyRange = 64
	hashMixFindPct  = 30
)

// newHashMix builds the narrow tracking hash map of the update mix for g
// worker threads (ids 1..g).
func newHashMix(g int) (*pmem.Pool, *rhash.Map) {
	p := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 21, MaxThreads: g + 1})
	return p, rhash.New(p, hashMixBuckets, g+1, 0)
}

// hashMixOps returns worker t's (0-based) stream of update-mix operations.
// The stream depends only on t, so every run of the mix, timed or
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

// BenchmarkHashMixUpdate times the update mix at g = 1, 2, 4, 8 and 16
// goroutines, each yielding after every op so that they interleave even
// on one CPU.
func BenchmarkHashMixUpdate(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			benchBatches(b, func() (*pmem.Pool, func(n int)) {
				p, m := newHashMix(g)
				hs := make([]*rhash.Handle, g)
				for t := range hs {
					hs[t] = m.Handle(p.NewThread(t + 1))
				}
				return p, func(n int) {
					var wg sync.WaitGroup
					for t, h := range hs {
						wg.Add(1)
						go func(t int, h *rhash.Handle) {
							defer wg.Done()
							next := hashMixOps(t)
							for i := t; i < n; i += g {
								runHashMixOp(h, next())
								runtime.Gosched()
							}
						}(t, h)
					}
					wg.Wait()
				}
			})
		})
	}
}

// hashMixCountOps is the op count of each lockstep hash-mix run, split
// evenly over the goroutines.
const hashMixCountOps = 3_000

// hashMixThread drives one tracking-hash handle through a lockstep
// schedule. The mix never invokes a checkpoint and the run never crashes,
// so Recover is unreachable.
type hashMixThread struct{ h *rhash.Handle }

func (hashMixThread) Invoke()                    {}
func (m hashMixThread) Run(op chaos.Op) uint64   { runHashMixOp(m.h, op); return 0 }
func (hashMixThread) Recover(op chaos.Op) uint64 { panic("bench: lockstep hash-mix run crashed") }

// hashMixPWBs runs hashMixCountOps update-mix operations over g goroutines
// in lockstep (chaos.Schedule.Lockstep: one thread at a time, passing the
// turn at each persistence instruction) and returns the pwbs executed.
// The interleaving is fixed, so the count is exact on every host.
func hashMixPWBs(t *testing.T, g int) uint64 {
	t.Helper()
	p, m := newHashMix(g)
	streams := make(map[int]func() chaos.Op, g)
	s := chaos.NewSchedule(g, hashMixCountOps/g, 0, func(_ *rand.Rand, tid, _ int) chaos.Op {
		if streams[tid] == nil {
			streams[tid] = hashMixOps(tid - 1)
		}
		return streams[tid]()
	})
	s.Lockstep(p, nil)
	base := p.Snapshot()
	err := s.Resume(func(tid int) (chaos.Thread, error) {
		return hashMixThread{m.Handle(p.NewThread(tid))}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Snapshot().Sub(base)
	return st.PWBs - st.PWBsMerged
}

// TestHashMixPWBGolden pins the pwbs the contended tracking-hash update
// mix executes in lockstep at g = 1, 2, 4, 8 and 16 goroutines. Helping,
// backtracking and re-persisting another helper's tag all show up in
// these counts, so any change to what the default path flushes under
// contention moves them. Each count is taken twice: the lockstep run
// must repeat exactly.
func TestHashMixPWBGolden(t *testing.T) {
	for _, c := range []struct {
		goroutines int
		pwbs       uint64
	}{{1, 11_600}, {2, 13_161}, {4, 14_862}, {8, 18_107}, {16, 21_140}} {
		for run := 0; run < 2; run++ {
			if got := hashMixPWBs(t, c.goroutines); got != c.pwbs {
				t.Errorf("g=%d run %d: executed %d pwbs, golden %d", c.goroutines, run, got, c.pwbs)
			}
		}
	}
}
