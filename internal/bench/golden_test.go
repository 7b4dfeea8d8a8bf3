package bench

import "testing"

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
