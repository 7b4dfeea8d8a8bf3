// Command benchrunner regenerates the evaluation figures of Attiya et al.
// (PPoPP 2022) on the simulated-NVMM substrate. Each figure panel prints as
// a CSV-like table: series name, thread count, value.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "figure id (fig3a..fig4f, fig5, fig6) or 'all'")
		threads    = flag.String("threads", "1,2,4,8", "comma-separated thread counts")
		duration   = flag.Duration("duration", 500*time.Millisecond, "measurement time per data point")
		seed       = flag.Int64("seed", 1, "workload seed")
		list       = flag.Bool("list", false, "list available experiments")
		substrate  = flag.Bool("substrate", false, "measure the pmem substrate microbenchmarks instead of a figure")
		allocOnly  = flag.Bool("alloc", false, "measure only the allocator churn points (free-stack vs bitmap-scan)")
		subOps     = flag.Int("substrate-ops", 0, "operations per substrate data point (0: default)")
		batchOps   = flag.Int("batch-ops", 0, "ambient write-combining policy, ops per group sync: adds mode:\"batched\" substrate points, applies to figure runs (0: off)")
		checkFA    = flag.Bool("check-flushavoid", false, "with -substrate, fail unless the tracking-hash update mix, counted exactly in lockstep at every goroutine count of the gate, executes no more pwbs than committed with flush avoidance and >= 20% fewer than without (see bench.CheckFlushAvoid)")
		flushAvoid = flag.Bool("flush-avoid", false, "run figure experiments with pool-wide flush avoidance enabled")
		recMode    = flag.Bool("recovery", false, "measure post-crash recovery latency instead of a figure")
		recSizes   = flag.String("recovery-sizes", "4096,32768", "comma-separated structure sizes for -recovery")
		recWorkers = flag.String("recovery-workers", "1,2,4,8", "comma-separated engine worker counts for -recovery")
		recTrials  = flag.Int("recovery-trials", 3, "trials per recovery data point")
		recThreads = flag.Int("recovery-threads", 8, "crashed application threads for -recovery")
		workloads  = flag.Bool("workloads", false, "run the open/closed-loop workload scenario matrix instead of a figure")
		wlOps      = flag.Int("workload-ops", 0, "operations per workload phase (0: default)")
		wlThreads  = flag.Int("workload-threads", 0, "modeled servers per workload scenario (0: default)")
		wlFilter   = flag.String("workload-filter", "", "run only the default workload scenarios whose name contains this substring")
		out        = flag.String("out", "", "write substrate JSON to this file instead of stdout")
		teleOut    = flag.String("telemetry", "", "observe the figure runs and write a telemetry snapshot (JSON) to this file")
		progress   = flag.Duration("progress", 2*time.Second, "telemetry progress-line interval (0 disables; needs -telemetry)")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.FigureIDs() {
			fmt.Println(id)
		}
		return
	}

	var ths []int
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad thread count %q\n", part)
			os.Exit(2)
		}
		ths = append(ths, n)
	}

	if *substrate || *allocOnly {
		var rep bench.SubstrateReport
		if *allocOnly {
			rep = bench.AllocChurnReport(ths, *subOps)
		} else {
			rep = bench.SubstrateBatch(ths, *subOps, *batchOps)
		}
		if *checkFA {
			if err := bench.CheckFlushAvoid(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *out != "" {
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		os.Stdout.Write(data)
		return
	}

	if *workloads {
		wlOpts := bench.WorkloadOptions{
			Seed: *seed, Threads: *wlThreads, OpsPerPhase: *wlOps,
		}
		if *wlFilter != "" {
			for _, sc := range bench.DefaultWorkloadScenarios() {
				if strings.Contains(sc.Name, *wlFilter) {
					wlOpts.Scenarios = append(wlOpts.Scenarios, sc)
				}
			}
			if len(wlOpts.Scenarios) == 0 {
				fmt.Fprintf(os.Stderr, "no workload scenario matches %q\n", *wlFilter)
				os.Exit(2)
			}
		}
		rep, err := bench.Workloads(wlOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		data, err := rep.MarshalIndentJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := bench.ValidateWorkloadsJSON(data); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *out != "" {
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		os.Stdout.Write(data)
		return
	}

	if *recMode {
		sizes, err := parseInts(*recSizes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -recovery-sizes: %v\n", err)
			os.Exit(2)
		}
		workers, err := parseInts(*recWorkers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -recovery-workers: %v\n", err)
			os.Exit(2)
		}
		opts := bench.RecoveryOptions{
			Sizes: sizes, Workers: workers,
			Trials: *recTrials, Threads: *recThreads, Seed: *seed,
		}
		var reg *telemetry.Registry
		if *teleOut != "" {
			reg = telemetry.NewRegistry(telemetry.Config{RingSize: 1024})
			opts.Telemetry = reg
		}
		rep, err := bench.Recovery(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := bench.ValidateRecoveryJSON(data); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *out != "" {
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			os.Stdout.Write(data)
		}
		if reg != nil {
			if err := writeTelemetry(reg, *teleOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "usage: benchrunner -experiment fig3a [-threads 1,2,4] [-duration 500ms]\n"+
			"       benchrunner -substrate [-threads 1,2,4,8,16] [-out BENCH_pmem.json]\n"+
			"       benchrunner -recovery [-recovery-sizes 4096,32768] [-recovery-workers 1,2,4,8] [-out BENCH_recovery.json]\n"+
			"       benchrunner -workloads [-seed 1] [-workload-ops 12000] [-out BENCH_workloads.json]")
		os.Exit(2)
	}
	opts := bench.Options{Threads: ths, Duration: *duration, Seed: *seed,
		BatchOps: *batchOps, FlushAvoid: *flushAvoid}

	var reg *telemetry.Registry
	if *teleOut != "" {
		reg = telemetry.NewRegistry(telemetry.Config{RingSize: 1024})
		opts.Telemetry = reg
		if err := reg.PublishExpvar("bench_telemetry"); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		if *progress > 0 {
			stopProgress := progressLoop(reg, *progress)
			defer stopProgress()
		}
	}

	ids := []string{*experiment}
	if *experiment == "all" {
		ids = bench.FigureIDs()
	}
	for _, id := range ids {
		fmt.Printf("# %s\n", id)
		series, err := bench.Figure(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("series,threads,value")
		for _, s := range series {
			for _, p := range s.Points {
				fmt.Printf("%s,%d,%.1f\n", s.Name, p.Threads, p.Value)
			}
		}
		fmt.Println()
	}

	if reg != nil {
		if err := writeTelemetry(reg, *teleOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// writeTelemetry validates and writes the registry's snapshot to path.
func writeTelemetry(reg *telemetry.Registry, path string) error {
	data, err := reg.Snapshot().MarshalIndentJSON()
	if err != nil {
		return err
	}
	if err := telemetry.ValidateSnapshotJSON(data); err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "telemetry: wrote %s\n", path)
	return nil
}

// progressLoop prints a live counter line to stderr every interval until
// the returned stop function is called.
func progressLoop(reg *telemetry.Registry, interval time.Duration) func() {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		start := time.Now()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				t := reg.Totals()
				fmt.Fprintf(os.Stderr,
					"telemetry: t=%s ops=%d pwbs=%d psyncs=%d pfences=%d stall_units=%d events=%d\n",
					time.Since(start).Round(time.Second), t.Ops, t.PWBs, t.PSyncs, t.PFences,
					t.StallUnits, t.Events)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
