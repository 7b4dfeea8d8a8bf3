// Command crashtest validates crash-recovery of the detectably recoverable
// structures in two modes.
//
// Randomized mode (the default) runs concurrent workloads on a strict-mode
// simulated NVMM pool, injects system-wide crashes at random
// persistent-memory accesses, recovers via each operation's recovery
// function, and audits every response for exactly-once semantics:
//
//	crashtest -structure rlist -threads 4 -ops 100 -crashes 8 -rounds 20
//
// Sweep mode (-sweep) deterministically enumerates every registered pwb
// site of each structure and crashes exactly there — at the k-th executed
// hit of each site, once per crash adversary — then recovers and validates.
// The coverage matrix is written as JSON:
//
//	crashtest -sweep -structure all -report crash_coverage.json
//
// Structure names are the chaos adapter registry's; "all" selects the six
// recoverable structures (plus the Capsules baselines in randomized mode).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/chaos/sweep"
	"repro/internal/pmem"
)

func main() {
	var (
		structure = flag.String("structure", "rlist", "structure under test (see -list), or \"all\"")
		list      = flag.Bool("list", false, "list registered structures and exit")
		seed      = flag.Int64("seed", 1, "base seed: workloads, crash points and adversaries derive from it")
		threads   = flag.Int("threads", 4, "worker threads (randomized mode)")
		ops       = flag.Int("ops", 80, "operations per thread")
		crashes   = flag.Int("crashes", 6, "crashes injected per round (randomized mode)")
		rounds    = flag.Int("rounds", 10, "independent rounds per structure (randomized mode)")
		keyRange  = flag.Int64("keys", 16, "key range [1,k] for set structures")
		mean      = flag.Int("mean-accesses", 800, "mean pool accesses between crashes (randomized mode)")

		sweepMode    = flag.Bool("sweep", false, "run the deterministic crash-site sweep instead")
		report       = flag.String("report", "", "write the sweep coverage report to this JSON file")
		depth        = flag.Int("depth", 1, "sweep: chained crashes per task (2 = crash again during recovery)")
		maxHits      = flag.Int("max-hits", 3, "sweep: hit indices swept per site")
		workers      = flag.Int("workers", 4, "sweep: parallel crash tasks")
		sweepThreads = flag.Int("sweep-threads", 0, "sweep: worker threads inside each task (0 = per-structure minimum, fully deterministic)")
		compare      = flag.String("compare", "", "sweep: baseline coverage report; exit nonzero on any verdict or metric drift")
	)
	flag.Parse()

	if *list {
		for _, name := range sweep.AdapterNames() {
			fmt.Println(name)
		}
		return
	}
	if *sweepMode {
		os.Exit(runSweep(*structure, *seed, *ops, *maxHits, *depth, *workers,
			*sweepThreads, *report, *compare))
	}
	os.Exit(runRandomized(*structure, *seed, *threads, *ops, *crashes, *rounds, *keyRange, *mean))
}

// structuresFor expands "all" (sweep: the six recoverable structures;
// randomized: every registered adapter) or validates a single name.
func structuresFor(structure string, sweeping bool) ([]string, error) {
	if structure != "all" {
		if _, err := sweep.AdapterByName(structure); err != nil {
			return nil, err
		}
		return []string{structure}, nil
	}
	if sweeping {
		var names []string
		for _, a := range sweep.DefaultAdapters() {
			names = append(names, a.Name)
		}
		return names, nil
	}
	return sweep.AdapterNames(), nil
}

// runRandomized is the classic random-crash-point stress mode.
func runRandomized(structure string, seed int64, threads, ops, crashes, rounds int, keyRange int64, mean int) int {
	names, err := structuresFor(structure, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	totalCrashes := 0
	for _, name := range names {
		a, err := sweep.AdapterByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		nThreads := threads
		if nThreads < a.MinThreads {
			nThreads = a.MinThreads
		}
		genOp := a.GenOp
		if a.KeyedGen != nil && keyRange > 0 {
			genOp = a.KeyedGen(keyRange)
		}
		for r := 0; r < rounds; r++ {
			s := seed + int64(r)
			pool := pmem.New(pmem.Config{
				Mode:          pmem.ModeStrict,
				CapacityWords: 1 << 22,
				MaxThreads:    nThreads + 2,
			})
			a.Setup(pool, nThreads+2)
			res, err := chaos.Run(chaos.Config{
				Pool:                       pool,
				Threads:                    nThreads,
				OpsPerThread:               ops,
				GenOp:                      genOp,
				Reattach:                   a.Reattach,
				Seed:                       s,
				MaxCrashes:                 crashes,
				MeanAccessesBetweenCrashes: mean,
				CommitProb:                 0.5,
				EvictProb:                  0.1,
			})
			if err == nil {
				err = a.Validate(pool, res)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "FAIL %s seed %d: %v\n", name, s, err)
				return 1
			}
			totalCrashes += res.Crashes
			fmt.Printf("%-13s round %2d (seed %d): ok, %d crashes survived\n", name, r, s, res.Crashes)
		}
	}
	fmt.Printf("PASS: %d structures x %d rounds, %d crashes, every operation resolved exactly once\n",
		len(names), rounds, totalCrashes)
	return 0
}

// runSweep is the deterministic crash-site sweep mode.
func runSweep(structure string, seed int64, ops, maxHits, depth, workers, sweepThreads int,
	report, compare string) int {
	names, err := structuresFor(structure, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	start := time.Now()
	rep, err := sweep.Run(sweep.Config{
		Structures:   names,
		Seed:         seed,
		Threads:      sweepThreads,
		OpsPerThread: ops,
		MaxHits:      maxHits,
		Depth:        depth,
		Workers:      workers,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if compare != "" {
		if err := compareReports(compare, rep); err != nil {
			fmt.Fprintf(os.Stderr, "compare: %v\n", err)
			return 1
		}
		fmt.Printf("compare: verdicts match baseline %s\n", compare)
	}
	if report != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := os.WriteFile(report, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("coverage report written to %s\n", report)
	}

	fmt.Printf("\n%-13s %-28s %8s %6s %6s %10s\n", "structure", "site", "profile", "tasks", "fired", "violations")
	for _, sr := range rep.Structures {
		for _, site := range sr.Sites {
			note := ""
			if site.Scripted {
				note = "  scripted"
			}
			fmt.Printf("%-13s %-28s %8d %6d %6d %10d%s\n",
				sr.Name, site.Site, site.ProfileHits, site.Tasks, site.FiredTasks, site.Violations, note)
		}
		for _, site := range sortedKeys(sr.UnreachableSites) {
			fmt.Printf("%-13s %-28s   unreachable: %s\n", sr.Name, site, sr.UnreachableSites[site])
		}
		if len(sr.UncoveredSites) > 0 {
			fmt.Printf("%-13s   (unreached in profile: %v)\n", sr.Name, sr.UncoveredSites)
		}
	}
	fmt.Printf("\nsweep: %d tasks in %v, %d violations\n",
		rep.Tasks, time.Since(start).Round(time.Millisecond), rep.Violations)
	if rep.Violations > 0 {
		for _, r := range rep.Results {
			if r.Violation != "" || r.Error != "" {
				fmt.Fprintf(os.Stderr, "VIOLATION %s %s k=%d adv=%s depth=%d: %s%s\n",
					r.Structure, r.Site, r.Hit, r.Adversary, r.Depth, r.Violation, r.Error)
				// The per-task telemetry trace: the persist and crash
				// lifecycle events leading up to the failure.
				for _, line := range r.Trace {
					fmt.Fprintf(os.Stderr, "  trace %s\n", line)
				}
			}
		}
		return 1
	}
	return 0
}

// compareReports asserts that a fresh sweep's verdicts match a baseline
// coverage report: every fresh task must exist in the baseline with the
// same Violation/Error verdict, and deterministic tasks (no per-task
// thread-count override) must also match Fired, Crashes, and the
// persistence metrics exactly. Baseline tasks missing from the fresh run
// (e.g. a one-structure sweep against the full baseline) are tolerated; a
// fresh task absent from the baseline is drift.
func compareReports(baselinePath string, fresh *sweep.Report) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base sweep.Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	baseline := make(map[string]sweep.TaskResult, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Key()] = r
	}
	var drift []string
	for _, r := range fresh.Results {
		b, ok := baseline[r.Key()]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s: not in baseline", r.Key()))
			continue
		}
		if r.Violation != b.Violation || r.Error != b.Error {
			drift = append(drift, fmt.Sprintf("%s: verdict %q/%q, baseline %q/%q",
				r.Key(), r.Violation, r.Error, b.Violation, b.Error))
			continue
		}
		if r.Threads != 0 {
			continue // multi-threaded top-up tasks are nondeterministic
		}
		if r.Fired != b.Fired || r.Crashes != b.Crashes {
			drift = append(drift, fmt.Sprintf("%s: fired/crashes %d/%d, baseline %d/%d",
				r.Key(), r.Fired, r.Crashes, b.Fired, b.Crashes))
			continue
		}
		if r.Metrics != nil && b.Metrics != nil && *r.Metrics != *b.Metrics {
			drift = append(drift, fmt.Sprintf("%s: metrics %+v, baseline %+v",
				r.Key(), *r.Metrics, *b.Metrics))
		}
	}
	if len(drift) > 0 {
		for _, d := range drift {
			fmt.Fprintf(os.Stderr, "compare: drift: %s\n", d)
		}
		return fmt.Errorf("%d tasks drifted from baseline", len(drift))
	}
	return nil
}

// sortedKeys returns m's keys in sorted order for stable output.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
