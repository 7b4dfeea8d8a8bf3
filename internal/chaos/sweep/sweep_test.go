package sweep

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smallSweep is a quick single-structure depth-1 sweep configuration.
func smallSweep(structure string) Config {
	return Config{
		Structures:   []string{structure},
		Seed:         42,
		OpsPerThread: 15,
		MaxHits:      2,
		Depth:        1,
		Workers:      4,
		PoolWords:    1 << 18,
	}
}

func TestSweepListCoversAllSitesNoViolations(t *testing.T) {
	rep, err := Run(smallSweep("rlist"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		for _, r := range rep.Results {
			if r.Violation != "" || r.Error != "" {
				t.Errorf("%s|%s k=%d adv=%s d=%d: %s%s",
					r.Structure, r.Site, r.Hit, r.Adversary, r.Depth, r.Violation, r.Error)
			}
		}
		t.Fatalf("%d violations", rep.Violations)
	}
	if len(rep.Structures) != 1 || rep.Structures[0].Name != "rlist" {
		t.Fatalf("unexpected structures %+v", rep.Structures)
	}
	sr := rep.Structures[0]
	if sr.Tasks == 0 || sr.FiredTasks == 0 || sr.Crashes == 0 {
		t.Fatalf("sweep did nothing: %+v", sr)
	}
	// Tasks replay the profiled schedule, so every armed hit k <= profile
	// hits must actually fire.
	for _, r := range rep.Results {
		if r.Fired == 0 {
			t.Errorf("deterministic task %s k=%d never fired", r.Site, r.Hit)
		}
	}
	if len(rep.Results) != rep.Tasks {
		t.Fatalf("task accounting off: %d results for %d tasks", len(rep.Results), rep.Tasks)
	}
}

// TestSweepBacktrackCoverage pins the hardest coverage guarantee: the
// tracking engine's backtrack site — unreachable by any profiled workload
// on one structure, and by any execution at all on others — is either
// exercised by a fired scripted scenario or declared structurally
// unreachable, never silently uncovered.
func TestSweepBacktrackCoverage(t *testing.T) {
	for _, structure := range []string{"rlist", "rbst", "rhash"} {
		cfg := smallSweep(structure)
		cfg.Depth = 2
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		site := structure + "/pwb-info-backtrack"
		scripted := 0
		for _, r := range rep.Results {
			if r.Site != site {
				continue
			}
			if !r.Scripted {
				t.Errorf("%s: non-scripted task at the backtrack site", structure)
			}
			if r.Fired == 0 || r.Violation != "" || r.Error != "" {
				t.Errorf("%s %s adv=%s d=%d: fired=%d violation=%q error=%q",
					structure, site, r.Adversary, r.Depth, r.Fired, r.Violation, r.Error)
			}
			if r.Depth == 2 && r.Crashes < 4 {
				// 2 staging crashes + 2 chained target crashes.
				t.Errorf("%s depth-2 scripted task crashed only %d times", structure, r.Crashes)
			}
			scripted++
		}
		if scripted != len(adversaries)+1 {
			t.Errorf("%s: %d scripted tasks at %s, want %d", structure, scripted, site, len(adversaries)+1)
		}
		for _, sr := range rep.Structures {
			if len(sr.UncoveredSites) != 0 {
				t.Errorf("%s: uncovered sites %v", sr.Name, sr.UncoveredSites)
			}
		}
	}
	for _, structure := range []string{"rqueue", "rstack"} {
		rep, err := Run(smallSweep(structure))
		if err != nil {
			t.Fatal(err)
		}
		sr := rep.Structures[0]
		site := structure + "/pwb-info-backtrack"
		if sr.UnreachableSites[site] == "" {
			t.Errorf("%s: backtrack site not declared unreachable: %+v", structure, sr)
		}
		if len(sr.UncoveredSites) != 0 {
			t.Errorf("%s: uncovered sites %v", structure, sr.UncoveredSites)
		}
		for _, r := range rep.Results {
			if r.Site == site {
				t.Errorf("%s: a task targeted the unreachable site", structure)
			}
		}
	}
}

// TestSweepKVStore pins satellite crash coverage for the sharded store:
// a depth-2 sweep over the kvstore's own persist points (value persist,
// slot publish/tombstone, TTL stamp) must profile and fire every site and
// validate with zero violations — including the re-crash that lands in
// RecoverPut/RecoverDelete while the store is being repaired.
func TestSweepKVStore(t *testing.T) {
	cfg := smallSweep("kvstore")
	cfg.Depth = 2
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Violation != "" || r.Error != "" {
			t.Errorf("%s k=%d adv=%s d=%d: %s%s", r.Site, r.Hit, r.Adversary, r.Depth, r.Violation, r.Error)
		}
	}
	sr := rep.Structures[0]
	if len(sr.UncoveredSites) != 0 {
		t.Fatalf("uncovered kvstore sites: %v", sr.UncoveredSites)
	}
	covered := map[string]bool{}
	for _, site := range sr.Sites {
		if site.ProfileHits == 0 || site.FiredTasks == 0 {
			t.Errorf("site %s: profile hits %d, fired tasks %d", site.Site, site.ProfileHits, site.FiredTasks)
		}
		covered[site.Site] = true
	}
	for _, want := range []string{"kvstore/pwb-val", "kvstore/pwb-slot", "kvstore/pwb-ttl"} {
		if !covered[want] {
			t.Errorf("site %s never swept (have %v)", want, sr.Sites)
		}
	}
	// Depth-2 tasks must actually chain a second crash into recovery for
	// at least one site.
	double := 0
	for _, r := range rep.Results {
		if r.Depth == 2 && r.Crashes >= 2 {
			double++
		}
	}
	if double == 0 {
		t.Fatal("no kvstore depth-2 task crashed during recovery")
	}
}

// TestSweepDeterministicGivenSeed pins that a sweep repeats exactly from
// its seed, and that every armed hit fires. Multi-threaded tasks run in
// lockstep, so that holds for the two structures that run two threads,
// the exchanger and Capsules-Opt, as for a single-threaded structure.
func TestSweepDeterministicGivenSeed(t *testing.T) {
	exch := smallSweep("rexchanger")
	exch.Depth = 2
	// At 60 ops the profile reaches capsopt/pwb-marked-node, the site
	// only a second thread's delete exposes.
	caps := smallSweep("capsules-opt")
	caps.OpsPerThread = 60
	for _, cfg := range []Config{smallSweep("rbst"), exch, caps} {
		name := cfg.Structures[0]
		rep1, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep2, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		j1, _ := json.Marshal(rep1)
		j2, _ := json.Marshal(rep2)
		if string(j1) != string(j2) {
			t.Fatalf("%s: same seed, different reports:\n%s\n%s", name, j1, j2)
		}
		for _, r := range rep1.Results {
			if r.Fired == 0 || r.Violation != "" || r.Error != "" {
				t.Errorf("%s: %s fired=%d %s%s", name, r.Key(), r.Fired, r.Violation, r.Error)
			}
		}
		if u := rep1.Structures[0].UncoveredSites; len(u) != 0 {
			t.Errorf("%s: uncovered sites %v", name, u)
		}
	}
}

func TestSweepDepth2(t *testing.T) {
	cfg := smallSweep("rlist")
	cfg.Depth = 2
	cfg.MaxHits = 1
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d violations at depth 2", rep.Violations)
	}
	// At least one task must have crashed twice: once at the target site
	// and once again while recovering through it.
	double := 0
	for _, r := range rep.Results {
		if r.Depth == 2 && r.Crashes >= 2 {
			double++
		}
	}
	if double == 0 {
		t.Fatal("no depth-2 task crashed during recovery")
	}
}

func TestSweepUnknownStructure(t *testing.T) {
	if _, err := Run(Config{Structures: []string{"nope"}}); err == nil {
		t.Fatal("unknown structure accepted")
	}
}

// TestSweepAllStructures is the in-tree miniature of the CI sweep: every
// registered structure, one hit per site, all adversaries.
func TestSweepAllStructures(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	cfg := Config{
		Seed:         7,
		OpsPerThread: 12,
		MaxHits:      1,
		Depth:        1,
		Workers:      8,
		PoolWords:    1 << 18,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(AdapterNames()); len(rep.Structures) != n {
		t.Fatalf("swept %d structures, want all %d", len(rep.Structures), n)
	}
	for _, r := range rep.Results {
		if r.Violation != "" || r.Error != "" {
			t.Errorf("%s|%s k=%d adv=%s: %s%s", r.Structure, r.Site, r.Hit, r.Adversary, r.Violation, r.Error)
		}
	}
	for _, sr := range rep.Structures {
		if sr.FiredTasks == 0 {
			t.Errorf("%s: no task fired a targeted crash", sr.Name)
		}
	}
}

func TestCompare(t *testing.T) {
	task := func(structure string, hit int64) TaskResult {
		return TaskResult{Structure: structure, Site: structure + "/pwb-x", Hit: hit,
			Adversary: AdvDropAll, Depth: 1, Fired: 1, Crashes: 1}
	}
	base := &Report{
		Structures: []StructureReport{{Name: "rlist"}, {Name: "rbst"}},
		Results:    []TaskResult{task("rlist", 1), task("rlist", 2), task("rbst", 1)},
	}
	violated := append([]TaskResult(nil), base.Results...)
	violated[2].Violation = "lost insert"
	for _, c := range []struct {
		name  string
		fresh *Report
		drift bool
	}{
		{"identical", base, false},
		{"one result dropped", &Report{Structures: base.Structures, Results: base.Results[1:]}, true},
		{"one structure swept", &Report{Structures: base.Structures[:1], Results: base.Results[:2]}, false},
		{"verdict changed", &Report{Structures: base.Structures, Results: violated}, true},
		{"task not in baseline", &Report{Structures: base.Structures,
			Results: append(append([]TaskResult(nil), base.Results...), task("rbst", 2))}, true},
	} {
		if err := Compare(base, c.fresh); (err != nil) != c.drift {
			t.Errorf("%s: Compare = %v, want drift %v", c.name, err, c.drift)
		}
	}
	// A baseline recorded under another configuration is rejected by
	// naming the field, not by listing every task as drifted.
	for _, c := range []struct {
		field string
		set   func(*Report)
	}{
		{"seed", func(r *Report) { r.Seed = 2 }},
		{"ops_per_thread", func(r *Report) { r.OpsPerThread = 40 }},
		{"max_hits", func(r *Report) { r.MaxHits = 1 }},
		{"depth", func(r *Report) { r.Depth = 1 }},
	} {
		fresh := *base
		c.set(&fresh)
		err := Compare(base, &fresh)
		if err == nil || !strings.Contains(err.Error(), c.field) || strings.Contains(err.Error(), "drifted") {
			t.Errorf("%s differs: Compare = %v, want an error naming %s", c.field, err, c.field)
		}
	}
}

// TestSweepMatchesBaseline runs the configuration crash_coverage.json is
// recorded under (Defaults, every structure) and holds it to that file, as
// CI's crash-sweep job does. Every task fires and every registered site is
// swept or declared unreachable.
func TestSweepMatchesBaseline(t *testing.T) {
	data, err := os.ReadFile("../../../crash_coverage.json")
	if err != nil {
		t.Fatal(err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Defaults)
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(&base, rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(base.Results) {
		t.Fatalf("swept %d tasks, baseline has %d", len(rep.Results), len(base.Results))
	}
	for _, r := range rep.Results {
		if r.Fired == 0 {
			t.Errorf("%s never fired", r.Key())
		}
	}
	for _, sr := range rep.Structures {
		if len(sr.UncoveredSites) != 0 {
			t.Errorf("%s: uncovered sites %v", sr.Name, sr.UncoveredSites)
		}
	}
}
