package bench

import (
	"testing"
	"time"

	"repro/internal/tracking"
)

func quickOpts() Options {
	return Options{Threads: []int{1, 2}, Duration: 60 * time.Millisecond, Seed: 3, CategorizeThreads: 2}
}

func TestRunAllAlgos(t *testing.T) {
	for _, algo := range Algos() {
		t.Run(string(algo), func(t *testing.T) {
			res, err := Run(Config{
				Algo: algo, Threads: 2, Duration: 60 * time.Millisecond,
				Workload: UpdateIntensive(), Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("no operations completed")
			}
			if res.Throughput <= 0 {
				t.Fatalf("throughput %f", res.Throughput)
			}
			if algo == AlgoHarris {
				if res.Stats.PWBs != 0 || res.Stats.PSyncs != 0 {
					t.Fatalf("volatile baseline issued persistence: %+v", res.Stats)
				}
			} else if res.Stats.PWBs == 0 {
				t.Fatalf("%s issued no pwbs", algo)
			}
		})
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Algo: AlgoTracking, Threads: 0}); err == nil {
		t.Fatal("accepted zero threads")
	}
	if _, err := Run(Config{Algo: "nope", Threads: 1, Duration: time.Millisecond}); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
}

func TestDisableAllPWBs(t *testing.T) {
	res, err := Run(Config{
		Algo: AlgoTracking, Threads: 1, Duration: 50 * time.Millisecond,
		Workload: UpdateIntensive(), DisableAllPWBs: true, DisablePsync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PWBs != 0 || res.Stats.PSyncs != 0 || res.Stats.PFences != 0 {
		t.Fatalf("persistence-free run issued instructions: %+v", res.Stats)
	}
}

func TestOnlySites(t *testing.T) {
	labels, err := SiteLabelsFor(AlgoTracking)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) == 0 {
		t.Fatal("Tracking registered no sites")
	}
	keep := labels[0]
	res, err := Run(Config{
		Algo: AlgoTracking, Threads: 1, Duration: 50 * time.Millisecond,
		Workload: UpdateIntensive(), OnlySites: []string{keep}, DisablePsync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for l, n := range res.Stats.PWBsBySite {
		if l != keep && n != 0 {
			t.Fatalf("site %s executed %d pwbs despite OnlySites=%s", l, n, keep)
		}
	}
	if res.Stats.PWBsBySite[keep] == 0 {
		t.Fatalf("kept site %s executed nothing", keep)
	}
}

func TestDisabledSites(t *testing.T) {
	labels, err := SiteLabelsFor(AlgoCapsulesOpt)
	if err != nil {
		t.Fatal(err)
	}
	drop := labels[0]
	res, err := Run(Config{
		Algo: AlgoCapsulesOpt, Threads: 1, Duration: 50 * time.Millisecond,
		Workload: UpdateIntensive(), DisabledSites: []string{drop},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PWBsBySite[drop] != 0 {
		t.Fatalf("disabled site %s executed %d pwbs", drop, res.Stats.PWBsBySite[drop])
	}
}

func TestTrackingCountsMorePwbsThanOpt(t *testing.T) {
	run := func(algo Algo) float64 {
		res, err := Run(Config{
			Algo: algo, Threads: 2, Duration: 120 * time.Millisecond,
			Workload: UpdateIntensive(), Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Stats.PWBs) / float64(res.Ops)
	}
	tr, opt := run(AlgoTracking), run(AlgoCapsulesOpt)
	if tr <= opt {
		t.Fatalf("Tracking %.2f pwbs/op not more than Capsules-Opt %.2f (paper Figures 3d/4d)", tr, opt)
	}
}

func TestCapsulesIsProhibitive(t *testing.T) {
	run := func(algo Algo) float64 {
		res, err := Run(Config{
			Algo: algo, Threads: 2, Duration: 150 * time.Millisecond,
			Workload: UpdateIntensive(), Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	full, tracking := run(AlgoCapsules), run(AlgoTracking)
	if full*2 > tracking {
		t.Fatalf("Capsules (%.0f ops/s) not clearly below Tracking (%.0f): durability transform lost its cost", full, tracking)
	}
}

func TestCategorizeSites(t *testing.T) {
	impacts, err := CategorizeSites(AlgoTracking, UpdateIntensive(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(impacts) == 0 {
		t.Fatal("no sites categorized")
	}
	var total uint64
	for _, im := range impacts {
		if im.LossPct < 0 {
			t.Fatalf("negative loss for %s", im.Label)
		}
		total += im.Count
	}
	if total == 0 {
		t.Fatal("categorization saw no executed pwbs")
	}
}

func TestFigureIDsAllRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure panel")
	}
	o := Options{Threads: []int{1}, Duration: 30 * time.Millisecond, Seed: 2, CategorizeThreads: 1}
	for _, id := range FigureIDs() {
		series, err := Figure(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(series) == 0 {
			t.Fatalf("%s produced no series", id)
		}
		for _, s := range series {
			if len(s.Points) == 0 {
				t.Fatalf("%s series %s has no points", id, s.Name)
			}
		}
	}
}

func TestFigureUnknown(t *testing.T) {
	if _, err := Figure("fig9z", DefaultOptions()); err == nil {
		t.Fatal("accepted unknown figure id")
	}
}

func TestWorkloadMixes(t *testing.T) {
	r := ReadIntensive()
	u := UpdateIntensive()
	if r.FindPct != 70 || u.FindPct != 30 {
		t.Fatalf("mixes drifted from the paper: %d/%d", r.FindPct, u.FindPct)
	}
	if r.KeyRange != 500 || r.Preload != 250 {
		t.Fatalf("workload parameters drifted: %+v", r)
	}
}

func TestCategoryString(t *testing.T) {
	if Low.String() != "L" || Medium.String() != "M" || High.String() != "H" {
		t.Fatal("category names drifted")
	}
}

func TestReadOnlyOptAblationConfig(t *testing.T) {
	run := func(prof tracking.Profile) (perOp func(sites ...string) float64) {
		res, err := Run(Config{
			Algo: AlgoTracking, Threads: 1, Duration: 60e6,
			Workload: ReadIntensive(), TrackingProfile: prof,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops == 0 {
			t.Fatalf("Tracking[profile=%s] completed no ops", prof)
		}
		return func(sites ...string) float64 {
			var n uint64
			for _, s := range sites {
				n += res.Stats.PWBsBySite[s]
			}
			return float64(n) / float64(res.Ops)
		}
	}
	publish, reexec, full := run(tracking.Paper), run(tracking.Default), run(tracking.Full)
	// Without the optimization, read-only ops run Help and so tag nodes:
	// the info-tag site must fire far more often than with it.
	if f, p := full("rlist/pwb-info-tag"), publish("rlist/pwb-info-tag"); f <= p {
		t.Fatalf("ablation ineffective: tag pwbs/op %.2f (full) vs %.2f (publish)", f, p)
	}
	// Re-executed reads persist nothing: the per-op CP/RD bookkeeping is
	// paid by the updates alone.
	bookkeeping := []string{"rlist/pwb-CP", "rlist/pwb-RD", "rlist/pwb-desc+new"}
	if r, p := reexec(bookkeeping...), publish(bookkeeping...); r >= p/2 {
		t.Fatalf("re-execution left read bookkeeping: %.2f pwbs/op vs %.2f (publish)", r, p)
	}
}

func TestKeyRangeSweepRuns(t *testing.T) {
	series, err := KeyRangeSweep(Options{Threads: []int{2}, Duration: 40e6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("key-range sweep produced %d series, want 6", len(series))
	}
}

// TestCheckFlushAvoidGate pins the gate's two rules on fixed counts — at
// most the committed count, and a cut of at least faMinCutPct — and then
// the committed counts themselves, which the unmodified tree must meet
// exactly, run after run, at every goroutine count of the gate.
func TestCheckFlushAvoidGate(t *testing.T) {
	for _, c := range []struct {
		name          string
		committed, fa uint64
		fast          uint64
		ok            bool
	}{
		{"committed, cut exactly at the floor", 9280, 9280, 11600, true},
		{"cut one pwb short of the floor", 9280, 9280, 11599, false},
		{"one pwb above the committed count", 9280, 9281, 20000, false},
	} {
		if err := checkFlushAvoid(1, c.committed, c.fast, c.fa); (err == nil) != c.ok {
			t.Errorf("%s: checkFlushAvoid = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	for _, c := range faGatePWBs {
		for run := 0; run < 2; run++ {
			fast, fa := gatePWBs(c.goroutines, false), gatePWBs(c.goroutines, true)
			if fa != c.pwbs {
				t.Errorf("g=%d run %d: flush-avoided gate run executed %d pwbs, committed %d", c.goroutines, run, fa, c.pwbs)
			}
			if err := checkFlushAvoid(c.goroutines, c.pwbs, fast, fa); err != nil {
				t.Errorf("run %d: %v", run, err)
			}
		}
	}
}
