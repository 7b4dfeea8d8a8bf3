// Command telemetryvet validates the JSON artifacts the benchmark harness
// emits. It dispatches on each file's top-level "schema" tag:
//
//   - repro-telemetry/1: a telemetry snapshot — well-formed JSON with no
//     unknown fields, internally consistent per-site counters and latency
//     histograms (ordered p50 ≤ p90 ≤ p99 ≤ p99.9), a monotone event
//     trace, and uniquely named, sorted gauges.
//   - repro-workloads/1: a workload-scenario report — ordered quantiles per
//     phase and class, class counts summing to the phase's operations, a
//     calibrated arrival gap on every open-loop scenario, and
//     non-negative per-phase pwb and psync counts.
//
// Files carrying any other schema tag (or none) are rejected, so format
// drift fails CI instead of passing unexamined. The telemetry-smoke and
// bench-workloads CI gates run it over the artifacts short benchrunner runs
// produce.
//
//	telemetryvet telemetry.json BENCH_workloads.json [more.json ...]
//
// Exits non-zero (naming the offending file) on the first violation.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: telemetryvet artifact.json [more.json ...]")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		schema, err := vet(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok (%s)\n", path, schema)
	}
}

// vet validates data against the validator its schema tag selects and
// returns the tag.
func vet(data []byte) (string, error) {
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return "", fmt.Errorf("decode: %w", err)
	}
	switch head.Schema {
	case telemetry.SchemaVersion:
		return head.Schema, telemetry.ValidateSnapshotJSON(data)
	case bench.WorkloadsSchema:
		return head.Schema, bench.ValidateWorkloadsJSON(data)
	default:
		return "", fmt.Errorf("unknown schema %q (known: %q, %q)",
			head.Schema, telemetry.SchemaVersion, bench.WorkloadsSchema)
	}
}
