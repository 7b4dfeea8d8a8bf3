package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges B's value against A's for one metric. worse is how far B
// moved in the bad direction as a share of A's value. When either
// side's own spread over its rounds (q3-q1 over the median) exceeds the
// bound, the pair is unresolved: the benchmark cannot tell a move of that
// size from noise.
func verdict(a, b metric, better string, bound float64) (string, float64) {
	if a.Value == 0 || a.Median == 0 || b.Median == 0 {
		return "unresolved", 0
	}
	worse := (b.Value - a.Value) / a.Value
	if better == "higher" {
		worse = -worse
	}
	switch {
	case (a.Q3-a.Q1)/a.Median > bound || (b.Q3-b.Q1)/b.Median > bound:
		return "unresolved", worse
	case worse > bound:
		return "worse", worse
	case worse < -bound:
		return "better", worse
	}
	return "same", worse
}

// compareReports prints, for every (workload, end-to-end metric) pair of
// two -out files, same / better / worse / unresolved against the bounds in
// the spec. It returns the exit code: 1 on any worse pair, on a larger
// failed share, or on a pair missing from B.
func compareReports(specPath, pathA, pathB string) int {
	var spec benchmarkSpec
	var a, b report
	for path, v := range map[string]any{specPath: &spec, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	find := func(rep report, workload string) *runReport {
		for i := range rep.Runs {
			if r := &rep.Runs[i]; r.Workload == workload && !r.Traced {
				return r
			}
		}
		return nil
	}
	code := 0
	fmt.Printf("A: %s seed=%d commit=%s\nB: %s seed=%d commit=%s\n", pathA, a.Seed, a.Commit, pathB, b.Seed, b.Commit)
	for _, ra := range a.Runs {
		if ra.Traced {
			continue
		}
		rb := find(b, ra.Workload)
		if rb == nil {
			fmt.Printf("%-18s missing from B\n", ra.Workload)
			code = 1
			continue
		}
		shareA := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		shareB := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		if shareB > shareA || (rb.FirstError != "" && ra.FirstError == "") {
			fmt.Printf("%-18s failed share %g -> %g %s\n", ra.Workload, shareA, shareB, rb.FirstError)
			code = 1
		}
		for _, e := range spec.EndToEnd {
			var ma, mb *metric
			for i := range ra.Metrics {
				if ra.Metrics[i].Name == e.Name {
					ma = &ra.Metrics[i]
				}
			}
			for i := range rb.Metrics {
				if rb.Metrics[i].Name == e.Name {
					mb = &rb.Metrics[i]
				}
			}
			if ma == nil || mb == nil {
				fmt.Printf("%-18s %-22s missing\n", ra.Workload, e.Name)
				code = 1
				continue
			}
			v, worse := verdict(*ma, *mb, e.Better, e.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-18s %-22s %-10s A=%.4f B=%.4f %s  moved %+.2f%% toward worse, bound %.0f%%\n",
				ra.Workload, e.Name, v, ma.Value, mb.Value, ma.Unit, 100*worse, 100*e.Bound)
		}
	}
	return code
}
