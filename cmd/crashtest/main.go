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
// The sweep flags default to the configuration crash_coverage.json is
// recorded under (sweep.Defaults), so this rewrites it:
//
//	crashtest -sweep -structure all -report crash_coverage.json
//
// Structure names are the chaos adapter registry's; "all" selects every
// registered structure in both modes: the six recoverable structures, the
// rmm allocator, the sharded kvstore and the two Capsules baselines.
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
		seed      = flag.Int64("seed", sweep.Defaults.Seed, "base seed: workloads, crash points and adversaries derive from it")
		threads   = flag.Int("threads", 4, "worker threads (randomized mode)")
		ops       = flag.Int("ops", sweep.Defaults.OpsPerThread, "operations per thread")
		crashes   = flag.Int("crashes", 6, "crashes injected per round (randomized mode)")
		rounds    = flag.Int("rounds", 10, "independent rounds per structure (randomized mode)")
		mean      = flag.Int("mean-accesses", 800, "mean pool accesses between crashes (randomized mode)")

		sweepMode = flag.Bool("sweep", false, "run the deterministic crash-site sweep instead")
		report    = flag.String("report", "", "write the sweep coverage report to this JSON file")
		depth     = flag.Int("depth", sweep.Defaults.Depth, "sweep: chained crashes per task (2 = crash again during recovery)")
		maxHits   = flag.Int("max-hits", sweep.Defaults.MaxHits, "sweep: hit indices swept per site")
		workers   = flag.Int("workers", sweep.Defaults.Workers, "sweep: parallel crash tasks")
		compare   = flag.String("compare", "", "sweep: baseline coverage report; exit nonzero on any verdict or metric drift")
	)
	flag.Parse()

	if *list {
		for _, name := range sweep.AdapterNames() {
			fmt.Println(name)
		}
		return
	}
	if *sweepMode {
		os.Exit(runSweep(*structure, *seed, *ops, *maxHits, *depth, *workers, *report, *compare))
	}
	os.Exit(runRandomized(*structure, *seed, *threads, *ops, *crashes, *rounds, *mean))
}

// structuresFor expands "all" to every registered adapter or validates a
// single name.
func structuresFor(structure string) ([]string, error) {
	if structure == "all" {
		return sweep.AdapterNames(), nil
	}
	if _, err := sweep.AdapterByName(structure); err != nil {
		return nil, err
	}
	return []string{structure}, nil
}

// runRandomized is the classic random-crash-point stress mode.
func runRandomized(structure string, seed int64, threads, ops, crashes, rounds, mean int) int {
	names, err := structuresFor(structure)
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
				GenOp:                      a.GenOp,
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
func runSweep(structure string, seed int64, ops, maxHits, depth, workers int, report, compare string) int {
	names, err := structuresFor(structure)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	start := time.Now()
	rep, err := sweep.Run(sweep.Config{
		Structures:   names,
		Seed:         seed,
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
		if err := compareWith(compare, rep); err != nil {
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

// compareWith reads the baseline coverage report at baselinePath and
// checks the fresh sweep against it (sweep.Compare).
func compareWith(baselinePath string, fresh *sweep.Report) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base sweep.Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	return sweep.Compare(&base, fresh)
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
