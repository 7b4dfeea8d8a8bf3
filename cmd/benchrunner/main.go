// Command benchrunner regenerates the evaluation figures of Attiya et al.
// (PPoPP 2022) on the simulated-NVMM substrate. Each figure panel prints as
// a CSV-like table: series name, thread count, value.
package main

import (
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

	ths, err := parseInts(*threads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -threads: %v\n", err)
		os.Exit(2)
	}

	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "usage: benchrunner -experiment fig3a [-threads 1,2,4] [-duration 500ms]")
		os.Exit(2)
	}
	opts := bench.Options{Threads: ths, Duration: *duration, Seed: *seed}

	var reg *telemetry.Registry
	if *teleOut != "" {
		reg = telemetry.NewRegistry(telemetry.Config{RingSize: 1024})
		opts.Telemetry = reg
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
