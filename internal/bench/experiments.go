package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tracking"
)

// Category is a pwb code line's measured performance-impact class
// (Section 5): Low costs at most 10% throughput when added alone to the
// persistence-free version, Medium between 10% and 30%, High more than 30%.
type Category int

// The three impact categories.
const (
	Low Category = iota
	Medium
	High
)

func (c Category) String() string {
	switch c {
	case Low:
		return "L"
	case Medium:
		return "M"
	default:
		return "H"
	}
}

// SiteImpact is one pwb code line's measured classification.
type SiteImpact struct {
	Label    string
	Count    uint64  // pwbs executed by this line in the full run
	LossPct  float64 // throughput loss when only this line is enabled
	Category Category
}

// Series is one labelled curve of an experiment.
type Series struct {
	Name   string
	Points []Point
}

// Point is one data point of a series.
type Point struct {
	Threads int
	Value   float64
}

// Options parameterizes experiment execution.
type Options struct {
	Threads  []int         // thread counts to sweep
	Duration time.Duration // per data point
	Seed     int64
	// CategorizeThreads is the thread count at which per-site impact is
	// measured (the paper measures at several counts; one representative
	// count keeps run time manageable).
	CategorizeThreads int
	// Telemetry, when non-nil, observes every measured data point of the
	// experiment (see Config.Telemetry). Calibration runs — the
	// categorization sweeps behind Figures 3e-6 — stay unobserved so the
	// exported metrics describe the plotted measurements only.
	Telemetry *telemetry.Registry
}

// DefaultOptions returns a quick configuration suitable for CI runs.
func DefaultOptions() Options {
	return Options{Threads: []int{1, 2, 4, 8}, Duration: 300 * time.Millisecond, Seed: 1, CategorizeThreads: 4}
}

func (o Options) fill() Options {
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8}
	}
	if o.Duration <= 0 {
		o.Duration = 300 * time.Millisecond
	}
	if o.CategorizeThreads <= 0 {
		o.CategorizeThreads = o.Threads[len(o.Threads)-1]
	}
	return o
}

// throughputSweep measures ops/s vs threads for one configuration template.
func throughputSweep(name string, tmpl Config, o Options) (Series, error) {
	s := Series{Name: name}
	for _, th := range o.Threads {
		cfg := tmpl
		cfg.Threads = th
		cfg.Duration = o.Duration
		cfg.Seed = o.Seed
		cfg.Telemetry = o.Telemetry
		res, err := Run(cfg)
		if err != nil {
			return Series{}, err
		}
		s.Points = append(s.Points, Point{Threads: th, Value: res.Throughput})
	}
	return s, nil
}

// counterSweep measures a persistence-instruction rate (per operation) vs
// threads.
func counterSweep(name string, tmpl Config, o Options, pick func(Result) float64) (Series, error) {
	s := Series{Name: name}
	for _, th := range o.Threads {
		cfg := tmpl
		cfg.Threads = th
		cfg.Duration = o.Duration
		cfg.Seed = o.Seed
		cfg.Telemetry = o.Telemetry
		res, err := Run(cfg)
		if err != nil {
			return Series{}, err
		}
		s.Points = append(s.Points, Point{Threads: th, Value: pick(res)})
	}
	return s, nil
}

// ThroughputFigure reproduces Figures 3a/4a: throughput vs threads for all
// evaluated implementations.
func ThroughputFigure(w Workload, o Options) ([]Series, error) {
	o = o.fill()
	var out []Series
	for _, algo := range []Algo{AlgoTracking, AlgoCapsules, AlgoCapsulesOpt, AlgoRomulus, AlgoRedoOpt} {
		s, err := throughputSweep(string(algo), Config{Algo: algo, Workload: w}, o)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// PsyncCountFigure reproduces Figures 3b/4b: psyncs per operation for
// Tracking vs Capsules-Opt. As on the paper's machine, pfence is
// implemented with psync ("we implement a pfence using a psync"), so the
// count includes both.
func PsyncCountFigure(w Workload, o Options) ([]Series, error) {
	o = o.fill()
	var out []Series
	for _, algo := range []Algo{AlgoTracking, AlgoCapsulesOpt} {
		s, err := counterSweep(string(algo), Config{Algo: algo, Workload: w}, o,
			func(r Result) float64 {
				return float64(r.Stats.PSyncs+r.Stats.PFences) / float64(r.Ops)
			})
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// NoPsyncFigure reproduces Figures 3c/4c: throughput with and without psync
// instructions (their impact is negligible).
func NoPsyncFigure(w Workload, o Options) ([]Series, error) {
	o = o.fill()
	var out []Series
	for _, algo := range []Algo{AlgoTracking, AlgoCapsulesOpt} {
		s, err := throughputSweep(string(algo), Config{Algo: algo, Workload: w}, o)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		s, err = throughputSweep(string(algo)+"[no psync]",
			Config{Algo: algo, Workload: w, DisablePsync: true}, o)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// PwbCountFigure reproduces Figures 3d/4d: pwbs per operation for Tracking
// vs Capsules-Opt (Tracking executes more).
func PwbCountFigure(w Workload, o Options) ([]Series, error) {
	o = o.fill()
	var out []Series
	for _, algo := range []Algo{AlgoTracking, AlgoCapsulesOpt} {
		s, err := counterSweep(string(algo), Config{Algo: algo, Workload: w}, o,
			func(r Result) float64 { return float64(r.Stats.PWBs) / float64(r.Ops) })
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// bestThroughput runs cfg several times and returns the best observed
// throughput. The maximum is robust against scheduler hiccups on a shared
// host, which matters because the categorization compares runs that differ
// by a single pwb code line.
func bestThroughput(cfg Config, repeats int) (float64, error) {
	best := 0.0
	for i := 0; i < repeats; i++ {
		res, err := Run(cfg)
		if err != nil {
			return 0, err
		}
		if res.Throughput > best {
			best = res.Throughput
		}
	}
	return best, nil
}

// CategorizeSites measures the individual impact of every pwb code line of
// an algorithm, per the paper's methodology: compare the persistence-free
// version against the persistence-free version plus that single line. A
// line's impact is the total loss caused by all its executions, so a line
// the workload never executes is Low by definition.
func CategorizeSites(algo Algo, w Workload, o Options) ([]SiteImpact, error) {
	o = o.fill()
	const repeats = 3
	labels, err := SiteLabelsFor(algo)
	if err != nil {
		return nil, err
	}
	base := Config{
		Algo: algo, Workload: w, Threads: o.CategorizeThreads,
		Duration: o.Duration, Seed: o.Seed,
	}
	free := base
	free.DisableAllPWBs = true
	free.DisablePsync = true
	freeThr, err := bestThroughput(free, repeats)
	if err != nil {
		return nil, err
	}

	full, err := Run(base)
	if err != nil {
		return nil, err
	}

	var out []SiteImpact
	for _, label := range labels {
		count := full.Stats.PWBsBySite[label]
		if count == 0 {
			out = append(out, SiteImpact{Label: label, Category: Low})
			continue
		}
		only := base
		only.OnlySites = []string{label}
		only.DisablePsync = true
		thr, err := bestThroughput(only, repeats)
		if err != nil {
			return nil, err
		}
		loss := 100 * (1 - thr/freeThr)
		if loss < 0 {
			loss = 0
		}
		cat := Low
		switch {
		case loss > 30:
			cat = High
		case loss > 10:
			cat = Medium
		}
		out = append(out, SiteImpact{
			Label:    label,
			Count:    count,
			LossPct:  loss,
			Category: cat,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LossPct > out[j].LossPct })
	return out, nil
}

// labelsIn returns the site labels belonging to the given categories.
func labelsIn(impacts []SiteImpact, cats ...Category) []string {
	want := map[Category]bool{}
	for _, c := range cats {
		want[c] = true
	}
	var out []string
	for _, im := range impacts {
		if want[im.Category] {
			out = append(out, im.Label)
		}
	}
	return out
}

// CategoryCountFigure reproduces Figures 3e/4e: how many executed pwbs per
// operation fall into each impact category, per algorithm.
func CategoryCountFigure(w Workload, o Options) ([]Series, error) {
	o = o.fill()
	var out []Series
	for _, algo := range []Algo{AlgoTracking, AlgoCapsulesOpt} {
		impacts, err := CategorizeSites(algo, w, o)
		if err != nil {
			return nil, err
		}
		for _, cat := range []Category{Low, Medium, High} {
			sites := labelsIn(impacts, cat)
			s, err := counterSweep(fmt.Sprintf("%s[%s]", algo, cat),
				Config{Algo: algo, Workload: w}, o,
				func(r Result) float64 {
					var n uint64
					for _, l := range sites {
						n += r.Stats.PWBsBySite[l]
					}
					return float64(n) / float64(r.Ops)
				})
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// RemovalFigure reproduces Figures 3f/4f: starting from the full algorithm,
// cumulatively remove the Low, then Medium, then High pwb categories and
// measure the throughput gained at each step.
func RemovalFigure(w Workload, o Options) ([]Series, error) {
	o = o.fill()
	var out []Series
	for _, algo := range []Algo{AlgoTracking, AlgoCapsulesOpt} {
		impacts, err := CategorizeSites(algo, w, o)
		if err != nil {
			return nil, err
		}
		steps := []struct {
			suffix string
			drop   []string
		}{
			{"", nil},
			{"[-L]", labelsIn(impacts, Low)},
			{"[-LM]", labelsIn(impacts, Low, Medium)},
			{"[no pwbs]", labelsIn(impacts, Low, Medium, High)},
		}
		for _, st := range steps {
			s, err := throughputSweep(string(algo)+st.suffix,
				Config{Algo: algo, Workload: w, DisabledSites: st.drop}, o)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// AdditionFigure reproduces Figures 5/6 for one algorithm: the X-caused
// performance loss — persistence-free, plus only category L, only M, only
// H, and the full algorithm.
func AdditionFigure(algo Algo, w Workload, o Options) ([]Series, error) {
	o = o.fill()
	impacts, err := CategorizeSites(algo, w, o)
	if err != nil {
		return nil, err
	}
	var out []Series
	free, err := throughputSweep(string(algo)+"[persistence-free]",
		Config{Algo: algo, Workload: w, DisableAllPWBs: true, DisablePsync: true}, o)
	if err != nil {
		return nil, err
	}
	out = append(out, free)
	for _, cat := range []Category{Low, Medium, High} {
		sites := labelsIn(impacts, cat)
		cfg := Config{Algo: algo, Workload: w, OnlySites: sites, DisablePsync: true}
		if len(sites) == 0 {
			// An empty category adds nothing: measure the
			// persistence-free configuration, not the full algorithm.
			cfg.OnlySites = nil
			cfg.DisableAllPWBs = true
		}
		s, err := throughputSweep(fmt.Sprintf("%s[+%s]", algo, cat), cfg, o)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	full, err := throughputSweep(string(algo)+"[full]", Config{Algo: algo, Workload: w}, o)
	if err != nil {
		return nil, err
	}
	return append(out, full), nil
}

// ReadOnlyOptAblation measures the value of persisting less for read-only
// operations: the Tracking list on the read-intensive mix, where they
// dominate, at each engine profile — the paper's optimization (Algorithm 1,
// red code), the library default (reads re-execute and persist nothing;
// updates skip BeginOp), and no optimization.
func ReadOnlyOptAblation(o Options) ([]Series, error) {
	o = o.fill()
	var out []Series
	for _, prof := range []tracking.Profile{tracking.Paper, tracking.Default, tracking.Full} {
		s, err := throughputSweep("Tracking[profile="+prof.String()+"]",
			Config{Algo: AlgoTracking, Workload: ReadIntensive(), TrackingProfile: prof}, o)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// KeyRangeSweep reproduces the appendix observation that other key ranges
// exhibit the same trends: Tracking vs Capsules-Opt throughput across key
// ranges at the largest configured thread count.
func KeyRangeSweep(o Options) ([]Series, error) {
	o = o.fill()
	th := o.Threads[len(o.Threads)-1]
	var out []Series
	for _, algo := range []Algo{AlgoTracking, AlgoCapsulesOpt} {
		for _, kr := range []int64{100, 500, 2000} {
			w := UpdateIntensive()
			w.KeyRange = kr
			w.Preload = int(kr / 2)
			cfg := Config{Algo: algo, Workload: w, Threads: th, Duration: o.Duration,
				Seed: o.Seed, Telemetry: o.Telemetry}
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, Series{
				Name:   fmt.Sprintf("%s[keys=%d]", algo, kr),
				Points: []Point{{Threads: th, Value: res.Throughput}},
			})
		}
	}
	return out, nil
}

// Figure runs the named figure panel ("fig3a".."fig4f", "fig5", "fig6").
func Figure(id string, o Options) ([]Series, error) {
	read, update := ReadIntensive(), UpdateIntensive()
	switch id {
	case "fig3a":
		return ThroughputFigure(read, o)
	case "fig3b":
		return PsyncCountFigure(read, o)
	case "fig3c":
		return NoPsyncFigure(read, o)
	case "fig3d":
		return PwbCountFigure(read, o)
	case "fig3e":
		return CategoryCountFigure(read, o)
	case "fig3f":
		return RemovalFigure(read, o)
	case "fig4a":
		return ThroughputFigure(update, o)
	case "fig4b":
		return PsyncCountFigure(update, o)
	case "fig4c":
		return NoPsyncFigure(update, o)
	case "fig4d":
		return PwbCountFigure(update, o)
	case "fig4e":
		return CategoryCountFigure(update, o)
	case "fig4f":
		return RemovalFigure(update, o)
	case "fig5":
		return AdditionFigure(AlgoTracking, update, o)
	case "fig6":
		return AdditionFigure(AlgoCapsulesOpt, update, o)
	case "ablation-ro":
		return ReadOnlyOptAblation(o)
	case "keyranges":
		return KeyRangeSweep(o)
	default:
		return nil, fmt.Errorf("bench: unknown figure %q", id)
	}
}

// FigureIDs lists every reproducible figure panel.
func FigureIDs() []string {
	return []string{"fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f",
		"fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f", "fig5", "fig6",
		"ablation-ro", "keyranges"}
}
