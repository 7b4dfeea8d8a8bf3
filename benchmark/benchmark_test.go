package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/pmem"
)

// spec is BENCHMARK.json as the tests read it.
type specFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	var s specFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesTables keeps BENCHMARK.json and the code's tables equal:
// same workloads, same metrics, same units, in the same order.
func TestSpecMatchesTables(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: spec %q, code %q", i, s.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, spec []specMetric, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Fatalf("%s: spec has %d metrics, the code %d", kind, len(spec), len(defs))
		}
		for i, d := range defs {
			if spec[i].Name != d.name || spec[i].Unit != d.unit {
				t.Errorf("%s metric %d: spec %s [%s], code %s [%s]", kind, i, spec[i].Name, spec[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// differences are metrics computed as a difference of two measurements; at
// smoke scale noise can carry one below zero, and that is reported, not
// clamped.
func isDifference(name string) bool {
	return strings.Contains(name, ".self_") || name == "bench.trace_overhead_pct"
}

// TestSmoke runs every workload end to end and traced at smoke scale and
// checks the shape of what comes out. It asserts no wall-clock value.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	clients, err := clientCount(0, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, clients: clients, smoke: true, spans: spans}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var rep runReport
			want := s.EndToEnd
			if traced {
				rep, want = tracedRunOf(w, o), s.PerLayer
			} else {
				rep = endToEndRun(w, o)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s",
					w.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.FirstError)
			}
			got := map[string]float64{}
			for _, m := range rep.Metrics {
				if _, dup := got[m.Name]; dup {
					t.Errorf("%s: metric %s emitted twice", w.name, m.Name)
				}
				got[m.Name] = m.Value
				if !metricName.MatchString(m.Name) {
					t.Errorf("%s: bad metric name %q", w.name, m.Name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, m.Name, m.Value)
				}
				if m.Value < 0 && !isDifference(m.Name) {
					t.Errorf("%s: %s = %v, negative", w.name, m.Name, m.Value)
				}
			}
			for _, m := range want {
				if _, ok := got[m.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(got), len(want))
			}
			if line, err := driverLine(rep); err != nil || !json.Valid([]byte(line)) {
				t.Errorf("%s: driver line %q: %v", w.name, line, err)
			}
			if traced {
				sum := got["kvstore.pwbs_per_op"] + got["tracking.pwbs_per_op"] + got["rmm.pwbs_per_op"] +
					got["pmem.pwbs_unattributed_per_op"]
				if rec := got["pmem.pwbs_recorded_per_op"]; math.Abs(sum-rec) > 1e-9*rec {
					t.Errorf("%s: layers' pwbs/op sum to %v, recorded %v", w.name, sum, rec)
				}
			}
		}
	}

	// Every span's parent resolves to an earlier span of its stage.
	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type stageKey struct {
		workload string
		stage    int
	}
	seen := map[stageKey]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp struct {
			Workload, Name      string
			Stage, Span, Parent int
		}
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		k := stageKey{sp.Workload, sp.Stage}
		if sp.Span != seen[k] {
			t.Fatalf("%v: span %d follows %d spans", k, sp.Span, seen[k])
		}
		if sp.Parent < -1 || sp.Parent >= sp.Span {
			t.Fatalf("%v: span %d (%s) has parent %d", k, sp.Span, sp.Name, sp.Parent)
		}
		seen[k]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no spans written")
	}
}

// TestErrFullIsCounted runs a store too small for its workload: the Puts
// the shard rejects land in the failed count with ErrFull as the reported
// cause, the round completes, and the run reads incorrect.
func TestErrFullIsCounted(t *testing.T) {
	w := workload{
		name: "undersized", structure: onKVStore, mode: pmem.ModeFast,
		kv:   kvstore.Config{Shards: 1, Buckets: 8, SlotsPerShard: 256, MaxThreads: maxThreads},
		keys: 400, readPct: 10, insertPct: 90, opsPerRound: 4000, poolWords: 1 << 20,
	}
	r := runFastRound(w, generate(w, 1, 1), false)
	if r.failed == 0 || r.failed >= r.ops {
		t.Fatalf("failed = %d of %d ops, want some but not all", r.failed, r.ops)
	}
	if !errors.Is(r.err, kvstore.ErrFull) {
		t.Fatalf("first failure = %v, want ErrFull", r.err)
	}
	var rep runReport
	rep.tally(r)
	if rep.Correct || rep.Failed != r.failed || rep.Attempted != r.ops {
		t.Fatalf("report: correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
	}
}

// TestStreamsPinned pins each workload's streams for seed 1 at 2 clients,
// and shows that -seed is what shapes them.
func TestStreamsPinned(t *testing.T) {
	pinned := map[string]uint64{
		"kv-read-heavy":     0x0a6bab07dae1d493,
		"kv-update-heavy":   0xa9f246ec08852464,
		"list-update-heavy": 0x39b7b2fa3e19d0f1,
		"kv-crash-recover":  0xd35f8aace3c749bf,
	}
	for _, w := range workloads {
		h1 := generate(w, 1, 2).hash()
		if h1 != pinned[w.name] {
			t.Errorf("%s: seed 1 streams hash %#016x, pinned %#016x", w.name, h1, pinned[w.name])
		}
		if again := generate(w, 1, 2).hash(); again != h1 {
			t.Errorf("%s: seed 1 generated twice gives %#x then %#x", w.name, h1, again)
		}
		if h2 := generate(w, 2, 2).hash(); h2 == h1 {
			t.Errorf("%s: seed 2 gives the same streams as seed 1", w.name)
		}
	}
}

func TestClientCount(t *testing.T) {
	if n, err := clientCount(0, 8); err != nil || n != 2 {
		t.Errorf("default on 8 CPUs = %d, %v; want 2", n, err)
	}
	if n, err := clientCount(0, 1); err != nil || n != 1 {
		t.Errorf("default on 1 CPU = %d, %v; want 1", n, err)
	}
	if _, err := clientCount(3, 2); err == nil {
		t.Error("3 clients on 2 CPUs accepted")
	}
}

func TestVerdict(t *testing.T) {
	m := func(med, q1, q3 float64) metric { return metric{Value: med, Median: med, Q1: q1, Q3: q3} }
	cases := []struct {
		a, b   metric
		better string
		want   string
	}{
		{m(100, 99, 101), m(103, 102, 104), "lower", "same"},
		{m(100, 99, 101), m(120, 119, 121), "lower", "worse"},
		{m(100, 99, 101), m(80, 79, 81), "lower", "better"},
		{m(100, 99, 101), m(80, 79, 81), "higher", "worse"},
		{m(100, 80, 120), m(130, 129, 131), "lower", "unresolved"},
		{m(100, 99, 101), m(130, 100, 160), "lower", "unresolved"},
	}
	for i, c := range cases {
		if got, _ := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}
