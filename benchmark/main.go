// Command benchmark is the repository's wall-clock end-to-end benchmark:
// four closed-loop workloads against the shipped default configuration of
// the pmem -> tracking -> rhash/rmm -> kvstore stack, with per-layer
// attribution measured from outside. See README.md in this directory.
//
//	go run ./benchmark -seed 1 -out e2e.json          every workload, both runs
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"

	"repro/internal/pmem"
	"repro/internal/recovery"
)

// metric is one reported number over a run's rounds, with the median, the
// quartiles and the sample count alongside.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Clock  string  `json:"clock"` // "host" wall-clock, or "simulated" device quantity
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// runReport is one run (end-to-end or traced) of one workload.
type runReport struct {
	Workload   string   `json:"workload"`
	Traced     bool     `json:"traced"`
	StreamHash string   `json:"stream_hash"`
	Rounds     int      `json:"rounds"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Correct    bool     `json:"correct"`
	FirstError string   `json:"first_error,omitempty"`
	Metrics    []metric `json:"metrics"`
}

// report is what -out writes.
type report struct {
	Seed       int64       `json:"seed"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Clients    int         `json:"clients"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"commit"`
	Runs       []runReport `json:"runs"`
}

// options are the inputs of a run. seed is the only one that shapes load.
type options struct {
	seed    int64
	seconds float64
	clients int
	smoke   bool
	spans   string // span file, "" for none
}

func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
	}
	return rev + dirty
}

func clockOf(d metricDef) string {
	if d.simulated {
		return "simulated"
	}
	return "host"
}

// tally folds rounds into a report: attempted and failed ops, the first
// failure, and whether everything checked out.
func (rep *runReport) tally(rounds ...roundResult) {
	for i := range rounds {
		r := &rounds[i]
		rep.Attempted += r.ops
		rep.Failed += r.failed
		if r.err != nil && rep.FirstError == "" {
			rep.FirstError = r.err.Error()
		}
	}
	rep.Correct = rep.Failed == 0 && rep.FirstError == ""
}

func runRound(w workload, st *streams, traced bool, eng *recovery.Engine, seed int64) roundResult {
	if w.mode == pmem.ModeStrict {
		return runCrashRound(w, st, traced, eng, seed)
	}
	return runFastRound(w, st, traced)
}

func newEngine(clients int) *recovery.Engine {
	workers := runtime.NumCPU()
	if room := maxThreads - clients - 2; workers > room {
		workers = room
	}
	return recovery.New(recovery.Config{Workers: workers, BaseTID: clients + 2})
}

// endToEndRun measures w with tracing off: one discarded warm-up round
// (the first round in a process runs about a third slow), then rounds
// until the time is up. Every metric is a quantile over rounds: see
// metricDef.pick.
func endToEndRun(w workload, o options) runReport {
	if o.smoke {
		w = w.smoke()
	}
	st := generate(w, o.seed, o.clients)
	eng := newEngine(o.clients)
	rep := runReport{Workload: w.name, StreamHash: fmt.Sprintf("%016x", st.hash())}
	minRounds := 2
	if !o.smoke {
		minRounds = 3
		rep.tally(runRound(w, st, false, eng, o.seed)) // warm-up
		rep.Attempted, rep.Failed = 0, 0               // its failure is an error, but not measured ops
	}
	values := map[string][]float64{}
	for start := now(); rep.Rounds < minRounds || float64(now()-start)/1e9 < o.seconds; rep.Rounds++ {
		r := runRound(w, st, false, eng, o.seed)
		rep.tally(r)
		if r.wallS == 0 {
			break // the round could not be set up; the failure is tallied
		}
		for name, v := range endToEndOf(w, &r) {
			values[name] = append(values[name], v)
		}
	}
	for _, d := range endToEnd {
		q1, med, q3 := quartiles(values[d.name])
		rep.Metrics = append(rep.Metrics, metric{d.name, d.unit, clockOf(d), d.pick(q1, med, q3), med, q1, q3, len(values[d.name])})
	}
	return rep
}

// tracedRunOf measures w's per-layer metrics: the workload in situ,
// alternating plain and traced rounds for about half the time (their
// throughput difference is the tracing overhead), then the ladder.
func tracedRunOf(w workload, o options) runReport {
	ladderCalls, ops, twinOps, twinCrashes := ladderPrimCalls, ladderOps, 40_000, 4
	if o.smoke {
		w = w.smoke()
		ladderCalls, ops, twinOps, twinCrashes = 20_000, 5_000, 8_000, 2
	}
	st := generate(w, o.seed, o.clients)
	eng := newEngine(o.clients)
	rep := runReport{Workload: w.name, Traced: true, StreamHash: fmt.Sprintf("%016x", st.hash())}
	var t tracedRun

	minPairs := 1
	if !o.smoke {
		minPairs = 2
		rep.tally(runRound(w, st, false, eng, o.seed)) // warm-up
		rep.Attempted, rep.Failed = 0, 0
	}
	for start := now(); rep.Rounds < minPairs || float64(now()-start)/1e9 < o.seconds/2; rep.Rounds++ {
		plain := runRound(w, st, false, eng, o.seed)
		spanned := runRound(w, st, true, eng, o.seed)
		rep.tally(plain, spanned)
		if plain.wallS == 0 || spanned.wallS == 0 {
			break
		}
		if len(t.traced) > 0 {
			t.traced[len(t.traced)-1].spans = nil // only the last round's spans are written out
		}
		t.untraced = append(t.untraced, plain)
		t.traced = append(t.traced, spanned)
	}

	var err error
	if t.ladder, err = runLadder(w, st, eng, ladderCalls, ops); err != nil {
		rep.FirstError, rep.Correct = err.Error(), false
	}
	rung := workload{name: w.name, structure: onList, mode: w.mode, keys: listKeys, poolWords: 2 << 20}
	t.listRung = runFastRound(rung, st.single(ops, listKeys), true)
	rep.tally(t.listRung)
	if w.structure != onKVStore {
		rung := workload{name: w.name, structure: onKVStore, mode: w.mode, kv: ladderKV(w), keys: w.keys, poolWords: 2 << 20}
		r := runFastRound(rung, st.single(ops, 0), true)
		rep.tally(r)
		t.kvRung = &r
	}
	if w.mode != pmem.ModeStrict {
		twin := w
		twin.structure, twin.mode, twin.kv = onKVStore, pmem.ModeStrict, ladderKV(w)
		twin.opsPerRound, twin.crashes, twin.poolWords = twinOps, twinCrashes, 4<<20
		r := runCrashRound(twin, generate(twin, o.seed, o.clients), true, eng, o.seed)
		rep.tally(r)
		t.crashRun = &r
	}
	if len(t.traced) == 0 {
		return rep // nothing measured; the failure is tallied
	}

	values := t.perLayerOf()
	for _, d := range perLayer {
		v := values[d.name]
		rep.Metrics = append(rep.Metrics, metric{d.name, d.unit, clockOf(d), v, v, v, v, len(t.traced)})
	}
	if o.spans != "" {
		all := [][]span{t.traced[len(t.traced)-1].spans, t.ladder.spans, t.listRung.spans}
		if t.kvRung != nil {
			all = append(all, t.kvRung.spans)
		}
		if t.crashRun != nil {
			all = append(all, t.crashRun.spans)
		}
		if err := writeSpans(o.spans, w.name, all); err != nil {
			rep.FirstError, rep.Correct = err.Error(), false
		}
	}
	return rep
}

// driverLine is the one JSON object the benchmark contract asks for on the
// last line of standard output.
func driverLine(rep runReport) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for _, m := range rep.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out) // fails on a NaN or an infinity
	return string(b), err
}

func printRun(rep runReport) {
	kind := "end-to-end"
	if rep.Traced {
		kind = "per-layer"
	}
	fmt.Printf("%s  %s  rounds=%d attempted=%d failed=%d correct=%v stream=%s\n",
		rep.Workload, kind, rep.Rounds, rep.Attempted, rep.Failed, rep.Correct, rep.StreamHash)
	if rep.FirstError != "" {
		fmt.Printf("  first error: %s\n", rep.FirstError)
	}
	for _, m := range rep.Metrics {
		fmt.Printf("  %-36s %16.4f %-5s  q1=%.4f median=%.4f q3=%.4f n=%d  %s\n",
			m.Name, m.Value, m.Unit, m.Q1, m.Median, m.Q3, m.N, m.Clock)
	}
}

// clientCount resolves the -clients flag. Callers of an embedded library
// each wait for their reply, so the load is a closed loop of a few
// clients: min(nproc, 2) by default. More clients than CPUs would
// time-share and measure the scheduler, so they are refused.
func clientCount(asked, nproc int) (int, error) {
	if asked == 0 {
		return min(nproc, 2), nil
	}
	if asked < 1 || asked > nproc {
		return 0, fmt.Errorf("%d clients refused: this host has %d CPUs", asked, nproc)
	}
	return asked, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all)")
		trace   = flag.Int("trace", -1, "0: end-to-end run, tracing off; 1: traced per-layer run; default both")
		seed    = flag.Int64("seed", 1, "the only input that shapes load: op streams and crash points")
		seconds = flag.Float64("seconds", 20, "how long one run measures")
		clients = flag.Int("clients", 0, "client goroutines (default min(nproc, 2); more than nproc is refused)")
		smoke   = flag.Bool("smoke", false, "test scale: ~20k ops and 2 crashes per round")
		out     = flag.String("out", "", "write the full report here as JSON")
		spans   = flag.String("spans", "", "write the traced runs' spans here as JSON lines")
		compare = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
		spec    = flag.String("spec", "BENCHMARK.json", "the bounds -compare judges against")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareReports(*spec, flag.Arg(0), flag.Arg(1)))
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	var err error
	if *clients, err = clientCount(*clients, nproc); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []workload{w}
	}
	if *spans != "" {
		if err := os.WriteFile(*spans, nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}

	o := options{seed: *seed, seconds: *seconds, clients: *clients, smoke: *smoke, spans: *spans}
	rep := report{Seed: *seed, NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: *clients,
		GoVersion: runtime.Version(), Commit: commit()}
	fmt.Printf("seed=%d nproc=%d gomaxprocs=%d clients=%d go=%s commit=%s\n",
		rep.Seed, rep.NProc, rep.GOMAXPROCS, rep.Clients, rep.GoVersion, rep.Commit)
	ok := true
	for _, w := range todo {
		if *trace != 1 {
			rep.Runs = append(rep.Runs, endToEndRun(w, o))
		}
		if *trace != 0 {
			rep.Runs = append(rep.Runs, tracedRunOf(w, o))
		}
	}
	for _, r := range rep.Runs {
		printRun(r)
		ok = ok && r.Correct
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if len(rep.Runs) == 1 {
		line, err := driverLine(rep.Runs[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(line)
	}
	if !ok {
		os.Exit(1)
	}
}
