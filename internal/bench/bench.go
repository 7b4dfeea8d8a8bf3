// Package bench is the experiment harness reproducing the evaluation of
// Attiya et al. (PPoPP 2022), Section 5. It runs the paper's workloads —
// keys uniform in [1,500], a list preloaded with 250 distinct random keys,
// read-intensive (70% Find) and update-intensive (30% Find) mixes — over
// every evaluated implementation, measures throughput and persistence-
// instruction counts, classifies pwb code lines into Low/Medium/High impact
// categories by measuring each line's individual cost, and re-runs with
// categories removed. Each figure panel of the paper has a driver in
// experiments.go.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capsules"
	"repro/internal/pmem"
	"repro/internal/rbst"
	"repro/internal/redolog"
	"repro/internal/rhash"
	"repro/internal/rlist"
	"repro/internal/romulus"
	"repro/internal/telemetry"
	"repro/internal/tracking"
)

// Algo names an evaluated implementation, with the paper's labels.
type Algo string

// The evaluated implementations.
const (
	AlgoTracking    Algo = "Tracking"      // Section 4 list (Algorithms 3-4)
	AlgoTrackingBST Algo = "Tracking-BST"  // Section 6 BST (Algorithms 5-6)
	AlgoCapsules    Algo = "Capsules"      // capsules + full durability transform
	AlgoCapsulesOpt Algo = "Capsules-Opt"  // hand-tuned persistence
	AlgoRomulus     Algo = "Romulus"       // blocking persistent TM
	AlgoRedoOpt     Algo = "RedoOpt"       // persistent universal construction
	AlgoHarris      Algo = "Harris"        // volatile baseline, no persistence
	AlgoTrackingMap Algo = "Tracking-Hash" // hash map composed of Tracking lists
	// AlgoKVStore is the sharded recoverable key/value store
	// (internal/kvstore). It is a workload-engine tenant, not a figure
	// series — the paper's figures compare flat set structures — so Algos()
	// and newStructure leave it out; the workload engine constructs it
	// specially because it needs a shard count and hangs an interior shard
	// directory off its single root slot (see kvtenant.go).
	AlgoKVStore Algo = "Tracking-KV"
)

// Algos lists every benchmarkable implementation.
func Algos() []Algo {
	return []Algo{AlgoTracking, AlgoTrackingBST, AlgoTrackingMap, AlgoCapsules,
		AlgoCapsulesOpt, AlgoRomulus, AlgoRedoOpt, AlgoHarris}
}

// Workload parameterizes the key distribution and operation mix.
type Workload struct {
	KeyRange int64 // keys drawn uniformly from [1, KeyRange]
	Preload  int   // random inserts before measuring
	FindPct  int   // percentage of Finds; the rest split evenly
}

// ReadIntensive is the paper's 70%-find mix over keys [1,500], preloaded
// with 250 distinct keys (a half-full list; see preloadKeys).
func ReadIntensive() Workload { return Workload{KeyRange: 500, Preload: 250, FindPct: 70} }

// UpdateIntensive is the paper's 30%-find mix.
func UpdateIntensive() Workload { return Workload{KeyRange: 500, Preload: 250, FindPct: 30} }

// Config is one measurement run.
type Config struct {
	Algo     Algo
	Threads  int
	Duration time.Duration
	Workload Workload
	Seed     int64
	// PoolWords sizes the arena; 0 picks a default adequate for the
	// duration.
	PoolWords int
	// DisablePsync removes all psync/pfence instructions (Figures 3c/4c).
	DisablePsync bool
	// DisableAllPWBs removes every pwb code line ("[no pwbs]").
	DisableAllPWBs bool
	// DisabledSites removes the named pwb code lines.
	DisabledSites []string
	// OnlySites, when non-empty, removes every pwb code line except the
	// named ones (the "persistence-free + this line" methodology).
	OnlySites []string
	// Cost overrides the pmem cost model (zero value: default).
	Cost pmem.CostModel
	// TrackingProfile selects the Tracking list engine's profile
	// (ablation). The zero value, tracking.Paper, is Algorithm 1 as the
	// paper measures it, so every figure run pins it; the library default
	// is tracking.Default. The other Tracking structures keep the default.
	TrackingProfile tracking.Profile
	// Telemetry, when non-nil, observes the run: the registry is attached
	// to the pool as its persistence sink (after preloading, so it sees
	// only the measured phase), every operation's latency is recorded into
	// its histograms, and worker goroutines carry pprof labels. Nil — the
	// default — keeps the measured loop free of timestamping.
	Telemetry *telemetry.Registry
}

// Result is one measured data point.
type Result struct {
	Algo       Algo
	Threads    int
	Ops        uint64
	Elapsed    time.Duration
	Throughput float64 // operations per second
	// Stats holds the persistence-instruction counters accumulated during
	// the measured phase (preloading excluded).
	Stats pmem.Stats
}

// opRunner is the uniform per-thread face of an implementation.
type opRunner interface {
	Insert(key int64) bool
	Delete(key int64) bool
	Find(key int64) bool
}

// instance is a constructed structure plus its per-thread runner factory.
type instance struct {
	pool   *pmem.Pool
	runner func(tid int) opRunner

	// Every ThreadCtx handed to a runner, so the workload engine can find
	// the context behind a runner (see runnerCtx).
	mu   sync.Mutex
	ctxs []*pmem.ThreadCtx
}

// newThread creates and tracks a thread context.
func (inst *instance) newThread(tid int) *pmem.ThreadCtx {
	ctx := inst.pool.NewThread(tid)
	inst.mu.Lock()
	inst.ctxs = append(inst.ctxs, ctx)
	inst.mu.Unlock()
	return ctx
}

// build constructs the algorithm under test on a fresh fast-mode pool.
func build(cfg Config) (*instance, error) {
	words := cfg.PoolWords
	if words == 0 {
		words = 1 << 23 // 64 MiB arena default
	}
	pool := pmem.New(pmem.Config{
		Mode:          pmem.ModeFast,
		CapacityWords: words,
		MaxThreads:    cfg.Threads + 1,
		Cost:          cfg.Cost,
	})
	inst := &instance{pool: pool}
	runner, err := newStructure(inst, cfg.Algo, cfg.Threads+1, 0, words/8,
		cfg.TrackingProfile)
	if err != nil {
		return nil, err
	}
	inst.runner = runner
	return inst, nil
}

// newStructure constructs one instance of algo on inst's already-built pool
// and returns its per-thread runner factory. maxThreads bounds the
// per-thread state the structure allocates, rootSlot anchors its durable
// root — the multi-tenant workload engine places several structures on one
// pool, one root slot each — and regionWords sizes the duplicated/logged
// region of the TM-style algorithms (Romulus, RedoOpt). prof is the Tracking
// list engine's profile (see Config.TrackingProfile).
func newStructure(inst *instance, algo Algo, maxThreads, rootSlot, regionWords int,
	prof tracking.Profile) (func(tid int) opRunner, error) {
	pool := inst.pool
	switch algo {
	case AlgoTracking:
		l := rlist.New(pool, maxThreads, rootSlot)
		l.Engine().SetProfile(prof)
		return func(tid int) opRunner { return l.Handle(inst.newThread(tid)) }, nil
	case AlgoTrackingBST:
		tr := rbst.New(pool, maxThreads, rootSlot)
		return func(tid int) opRunner { return tr.Handle(inst.newThread(tid)) }, nil
	case AlgoTrackingMap:
		m := rhash.New(pool, 64, maxThreads, rootSlot)
		return func(tid int) opRunner { return m.Handle(inst.newThread(tid)) }, nil
	case AlgoCapsules:
		l := capsules.New(pool, capsules.VariantFull, maxThreads, rootSlot)
		return func(tid int) opRunner { return l.Handle(inst.newThread(tid)) }, nil
	case AlgoCapsulesOpt:
		l := capsules.New(pool, capsules.VariantOpt, maxThreads, rootSlot)
		return func(tid int) opRunner { return l.Handle(inst.newThread(tid)) }, nil
	case AlgoHarris:
		l := capsules.New(pool, capsules.VariantNone, maxThreads, rootSlot)
		return func(tid int) opRunner { return l.Handle(inst.newThread(tid)) }, nil
	case AlgoRomulus:
		// The TM region is a fraction of the arena (it is duplicated).
		tm := romulus.NewTM(pool, regionWords, maxThreads, rootSlot)
		l := romulus.NewList(tm, inst.newThread(0))
		return func(tid int) opRunner {
			return &romulusRunner{tm: tm, l: l, ctx: inst.newThread(tid)}
		}, nil
	case AlgoRedoOpt:
		s := redolog.New(pool, regionWords, maxThreads, rootSlot)
		return func(tid int) opRunner { return s.Handle(inst.newThread(tid)) }, nil
	default:
		return nil, fmt.Errorf("bench: unknown algorithm %q", algo)
	}
}

// romulusRunner adapts the TM list to the uniform interface.
type romulusRunner struct {
	tm  *romulus.TM
	l   *romulus.List
	ctx *pmem.ThreadCtx
}

func (r *romulusRunner) Insert(key int64) bool {
	return r.l.Insert(r.ctx, r.tm.Invoke(r.ctx), key)
}

func (r *romulusRunner) Delete(key int64) bool {
	return r.l.Delete(r.ctx, r.tm.Invoke(r.ctx), key)
}

func (r *romulusRunner) Find(key int64) bool { return r.l.Find(r.ctx, key) }

// applySiteConfig arms the pool's site switches per the run configuration.
func applySiteConfig(pool *pmem.Pool, cfg Config) {
	if cfg.DisablePsync {
		pool.SetPsyncEnabled(false)
	}
	if cfg.DisableAllPWBs {
		pool.SetAllSitesEnabled(false)
		return
	}
	labels := pool.SiteLabels()
	if len(cfg.OnlySites) > 0 {
		keep := map[string]bool{}
		for _, l := range cfg.OnlySites {
			keep[l] = true
		}
		for i, l := range labels {
			pool.SetSiteEnabled(pmem.Site(i), keep[l])
		}
		return
	}
	if len(cfg.DisabledSites) > 0 {
		drop := map[string]bool{}
		for _, l := range cfg.DisabledSites {
			drop[l] = true
		}
		for i, l := range labels {
			if drop[l] {
				pool.SetSiteEnabled(pmem.Site(i), false)
			}
		}
	}
}

// runOne draws and executes one operation of the configured mix,
// recording its latency when a telemetry registry is attached. The update
// direction is a draw of its own: the previous scheme reused the parity
// of the mix draw (pct&1), which skews the insert/delete split whenever
// FindPct is odd (the update range [FindPct,100) then holds unequal
// numbers of even and odd values) and ties the direction to the mix
// position instead of an independent coin.
func runOne(run opRunner, rng *rand.Rand, cfg *Config, tid int) {
	key := rng.Int63n(cfg.Workload.KeyRange) + 1
	op := telemetry.OpFind
	if rng.Intn(100) >= cfg.Workload.FindPct {
		if rng.Intn(2) == 0 {
			op = telemetry.OpInsert
		} else {
			op = telemetry.OpDelete
		}
	}
	var start time.Time
	if cfg.Telemetry != nil {
		start = time.Now()
	}
	switch op {
	case telemetry.OpInsert:
		run.Insert(key)
	case telemetry.OpDelete:
		run.Delete(key)
	default:
		run.Find(key)
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.RecordOp(tid, op, time.Since(start).Nanoseconds())
	}
}

// workerLabels runs body under pprof labels identifying the benchmark
// worker, so CPU profiles of telemetry-enabled runs attribute samples to
// (algorithm, thread). Unlabelled otherwise: label maintenance costs a
// goroutine-local store per transition and is pure overhead when nobody
// profiles.
func workerLabels(cfg *Config, tid int, body func()) {
	if cfg.Telemetry == nil {
		body()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(
		"bench_algo", string(cfg.Algo),
		"bench_tid", strconv.Itoa(tid),
	), func(context.Context) { body() })
}

// Run executes one measurement and returns its data point.
func Run(cfg Config) (Result, error) {
	if cfg.Threads <= 0 {
		return Result{}, fmt.Errorf("bench: Threads must be positive")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 500 * time.Millisecond
	}
	if cfg.Workload.KeyRange == 0 {
		cfg.Workload = ReadIntensive()
	}
	inst, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	applySiteConfig(inst.pool, cfg)

	// Preload with the boot thread (thread id 0): the paper populates the
	// structure with 250 random inserts before measuring.
	pre := inst.runner(0)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, key := range preloadKeys(cfg.Workload, rng) {
		pre.Insert(key)
	}

	// Telemetry attaches after the preload so the registry, like base,
	// observes only the measured phase.
	if cfg.Telemetry != nil {
		cfg.Telemetry.AttachPool(inst.pool)
	}

	base := inst.pool.Snapshot()
	var stop atomic.Bool
	var total atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for t := 1; t <= cfg.Threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			workerLabels(&cfg, tid, func() {
				r := inst.runner(tid)
				rng := rand.New(rand.NewSource(threadSeed(cfg.Seed, tid)))
				ops := uint64(0)
				for !stop.Load() {
					for i := 0; i < opBatch; i++ {
						runOne(r, rng, &cfg, tid)
						ops++
						// Yield between operations: on few-core hosts this
						// recreates the fine-grained thread interleaving of
						// the paper's 96-hardware-thread machine, which the
						// contention-dependent flush costs rely on.
						runtime.Gosched()
					}
				}
				total.Add(ops)
			})
		}(t)
	}
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	st := inst.pool.Snapshot().Sub(base)

	if cfg.Telemetry != nil {
		cfg.Telemetry.SetGauge("pmem-pwbs-recorded", st.PWBs)
	}

	ops := total.Load()
	return Result{
		Algo:       cfg.Algo,
		Threads:    cfg.Threads,
		Ops:        ops,
		Elapsed:    elapsed,
		Throughput: float64(ops) / elapsed.Seconds(),
		Stats:      st,
	}, nil
}

// SiteLabelsFor returns the pwb code-line labels an algorithm registers
// (built on a throwaway pool).
func SiteLabelsFor(algo Algo) ([]string, error) {
	inst, err := build(Config{Algo: algo, Threads: 1, PoolWords: 1 << 12})
	if err != nil {
		return nil, err
	}
	return inst.pool.SiteLabels(), nil
}
