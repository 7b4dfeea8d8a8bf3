// Package sweep implements the systematic crash-site sweep and the
// structure adapter registry behind it: instead of sampling crash points
// at random pool accesses (chaos.Run), the sweep deterministically
// enumerates every registered pwb code line of a structure and crashes
// exactly there — at the k-th executed hit of each site, once per
// adversary flush choice — then recovers, finishes the workload, and
// audits the result with the structure's exactly-once oracle. The paper's
// detectability argument is per persist point; the sweep turns that
// argument into a checked, reported coverage matrix (crash_coverage.json).
package sweep

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/chaos"
	"repro/internal/pmem"
	"repro/internal/telemetry"
)

// Adversary names a crash-time flush decision the sweep pairs with every
// crash point. Crashing just before site s's k-th PWB is durably identical
// to crashing just after it under AdvDropAll, so the three adversaries
// together cover both sides of each persist point plus a randomized
// middle.
const (
	// AdvDropAll loses every scheduled-but-unsynced write-back and every
	// dirty cache line: the worst-case adversary (pmem.CrashPolicy zero
	// value).
	AdvDropAll = "drop-all"
	// AdvCommitAll persists everything: durable state equals volatile
	// state at the crash (pmem.CrashPolicy.CommitAll).
	AdvCommitAll = "commit-all"
	// AdvRandom flips a deterministic per-task coin for each pending
	// write-back and dirty line.
	AdvRandom = "random"
)

// adversaries is the sweep's fixed adversary schedule.
var adversaries = []string{AdvDropAll, AdvCommitAll, AdvRandom}

// Config parameterizes a crash-site sweep.
type Config struct {
	// Structures lists the adapters to sweep; empty means every adapter
	// with DefaultSweep set (the six recoverable structures).
	Structures []string
	// Seed makes the whole sweep reproducible: workloads, crash points and
	// the random adversary all derive from it.
	Seed int64
	// Threads is the worker-thread count inside each task; 0 means each
	// structure's MinThreads (single-threaded where possible). Several
	// threads run in lockstep (chaos.Schedule.Lockstep), so a task is
	// fully deterministic either way.
	Threads int
	// OpsPerThread is each worker's operation quota per task (default 40).
	OpsPerThread int
	// MaxHits caps how many hit indices k are swept per site: k = 1..min(
	// profile hits, MaxHits), plus the site's last profiled hit when it is
	// beyond the cap (default 3).
	MaxHits int
	// Depth is the number of chained crashes per task: 1 crashes once at
	// the target site; 2 re-arms the same site after recovery, crashing
	// again while the structure recovers (default 1).
	Depth int
	// Workers is the number of tasks run in parallel, each on its own
	// pool (default 4).
	Workers int
	// PoolWords sizes each task's pool (default 1<<20).
	PoolWords int
	// Log, when non-nil, receives human-readable progress lines.
	Log func(format string, args ...any)
}

// TaskResult is the outcome of one (structure, site, hit, adversary,
// depth) crash experiment.
type TaskResult struct {
	Structure string `json:"structure"`
	Site      string `json:"site"`
	Hit       int64  `json:"hit"`
	Adversary string `json:"adversary"`
	Depth     int    `json:"depth"`
	// Threads is the task's worker-count override (0 = the sweep default);
	// non-zero marks a multi-threaded coverage top-up task.
	Threads int `json:"threads,omitempty"`
	// Scripted marks a task that ran a deterministic provocation scenario
	// (see provoke.go) instead of a generated workload; Crashes then also
	// counts the scenario's staging crashes.
	Scripted bool `json:"scripted,omitempty"`
	// Fired counts how many of the task's armed triggers actually fired
	// (0..Depth): the workload may finish before the k-th hit, or recovery
	// may never revisit the site for the depth-2 arm.
	Fired int `json:"fired"`
	// Crashes is the number of crash/recover cycles the task went through.
	Crashes int `json:"crashes"`
	// Violation is the oracle's complaint, empty when the run validated.
	Violation string `json:"violation,omitempty"`
	// Error reports a harness-level failure (attach error etc.).
	Error string `json:"error,omitempty"`
	// Metrics summarizes the persistence telemetry of the task's whole
	// life (workload, crashes, recoveries).
	Metrics *TaskMetrics `json:"metrics,omitempty"`
	// Trace is the tail of the task's persistence/crash event trace,
	// dumped only when the task ended in a violation or harness error.
	Trace []string `json:"trace,omitempty"`
}

// TaskMetrics is the compact per-task telemetry embedded in the coverage
// report. Only deterministic counters are exported — wall-clock stall
// times would churn the checked-in crash_coverage.json on every
// regeneration.
type TaskMetrics struct {
	// PWBs counts executed write-backs across the task's runs.
	PWBs uint64 `json:"pwbs"`
	// PSyncs counts executed psyncs.
	PSyncs uint64 `json:"psyncs"`
	// PFences counts executed pfences.
	PFences uint64 `json:"pfences"`
	// Events counts trace events (persist + crash lifecycle) recorded.
	Events uint64 `json:"events"`
}

// taskRegistry builds the per-task telemetry registry: a small trace ring
// with persist events on, cheap enough for the sweep's short histories.
func taskRegistry(pool *pmem.Pool) *telemetry.Registry {
	reg := telemetry.NewRegistry(telemetry.Config{RingSize: 512, TracePersist: true})
	reg.AttachPool(pool)
	return reg
}

// finishTaskTelemetry fills the task's metrics and, for failed tasks, the
// event-trace tail.
func finishTaskTelemetry(reg *telemetry.Registry, res *TaskResult) {
	t := reg.Totals()
	res.Metrics = &TaskMetrics{PWBs: t.PWBs, PSyncs: t.PSyncs, PFences: t.PFences, Events: t.Events}
	if res.Violation != "" || res.Error != "" {
		res.Trace = reg.Snapshot().FormatTrace(64)
	}
}

// SiteReport aggregates one site's coverage across its tasks.
type SiteReport struct {
	Site string `json:"site"`
	// ProfileHits is how many PWBs the site executed in the crash-free
	// profile run; 0 flags a site the workload never reaches.
	ProfileHits uint64 `json:"profile_hits"`
	// Scripted marks a site covered by a deterministic provocation
	// scenario rather than the profiled workload.
	Scripted bool `json:"scripted,omitempty"`
	Tasks    int  `json:"tasks"`
	// FiredTasks counts tasks whose first (site, hit) trigger fired.
	FiredTasks int `json:"fired_tasks"`
	Violations int `json:"violations"`
}

// StructureReport aggregates one structure's sweep.
type StructureReport struct {
	Name       string       `json:"name"`
	Sites      []SiteReport `json:"sites"`
	Tasks      int          `json:"tasks"`
	FiredTasks int          `json:"fired_tasks"`
	Crashes    int          `json:"crashes"`
	Violations int          `json:"violations"`
	// UncoveredSites lists registered sites of this structure that the
	// profile workload never executed and no scripted scenario covers (so
	// no crash was injected there).
	UncoveredSites []string `json:"uncovered_sites,omitempty"`
	// UnreachableSites maps registered sites that no execution of this
	// structure can ever hit to the structural reason why (declared by the
	// adapter and checked against the profile).
	UnreachableSites map[string]string `json:"unreachable_sites,omitempty"`
}

// Report is the sweep's full result, serialized to crash_coverage.json.
type Report struct {
	Seed         int64             `json:"seed"`
	Threads      int               `json:"threads"`
	OpsPerThread int               `json:"ops_per_thread"`
	MaxHits      int               `json:"max_hits"`
	Depth        int               `json:"depth"`
	Structures   []StructureReport `json:"structures"`
	Tasks        int               `json:"tasks"`
	Violations   int               `json:"violations"`
	// Results holds every task outcome, in deterministic task order.
	Results []TaskResult `json:"results"`
}

// sweepTask identifies one crash experiment.
type sweepTask struct {
	structure string
	site      string
	hit       int64
	adversary string
	depth     int
	// threads overrides the task's worker count when positive: coverage
	// top-up tasks for contention-only sites run multi-threaded.
	threads int
	// scripted selects the adapter's provocation scenario for this site
	// instead of the generated workload.
	scripted bool
}

// Key returns the task result's stable identity string, so external
// consumers (crashtest -compare) can line up results across reports.
func (r TaskResult) Key() string {
	return sweepTask{r.Structure, r.Site, r.Hit, r.Adversary, r.Depth, r.Threads, r.Scripted}.key()
}

// key is the task's stable identity.
func (t sweepTask) key() string {
	k := fmt.Sprintf("%s|%s|k=%d|adv=%s|d=%d|t=%d",
		t.structure, t.site, t.hit, t.adversary, t.depth, t.threads)
	if t.scripted {
		k += "|script"
	}
	return k
}

// taskSeed derives a deterministic per-task seed from the sweep seed.
func (t sweepTask) taskSeed(seed int64) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, t.key())
	return seed ^ int64(h.Sum64())
}

// applyDefaults fills zero fields and resolves the structure list.
func (cfg *Config) applyDefaults() error {
	if len(cfg.Structures) == 0 {
		for _, a := range DefaultAdapters() {
			cfg.Structures = append(cfg.Structures, a.Name)
		}
	}
	for _, n := range cfg.Structures {
		if _, err := AdapterByName(n); err != nil {
			return err
		}
	}
	if cfg.OpsPerThread <= 0 {
		cfg.OpsPerThread = 40
	}
	if cfg.MaxHits <= 0 {
		cfg.MaxHits = 3
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.PoolWords <= 0 {
		cfg.PoolWords = 1 << 20
	}
	return nil
}

// threadsFor resolves the worker count for one structure.
func (cfg *Config) threadsFor(a *Adapter) int {
	n := cfg.Threads
	if n < a.MinThreads {
		n = a.MinThreads
	}
	if n <= 0 {
		n = 1
	}
	return n
}

// logf forwards to cfg.Log when set.
func (cfg *Config) logf(format string, args ...any) {
	if cfg.Log != nil {
		cfg.Log(format, args...)
	}
}

// newTaskPool builds a fresh strict-mode pool with the structure set up.
func (cfg *Config) newTaskPool(a *Adapter, threads int) *pmem.Pool {
	pool := pmem.New(pmem.Config{
		Mode:          pmem.ModeStrict,
		CapacityWords: cfg.PoolWords,
		MaxThreads:    threads + 2,
	})
	a.Setup(pool, threads+2)
	return pool
}

// profileStructure runs the workload once without crashes and returns the
// per-site PWB hit counts for the structure's own sites (prefix match),
// including sites the workload never reached.
func profileStructure(a *Adapter, cfg *Config) (map[string]uint64, error) {
	threads := cfg.threadsFor(a)
	pool := cfg.newTaskPool(a, threads)
	sched := chaos.NewSchedule(threads, cfg.OpsPerThread, cfg.Seed, a.GenOp)
	if threads > 1 {
		sched.Lockstep(pool, nil)
	}
	factory, err := a.Reattach(pool)
	if err != nil {
		return nil, err
	}
	if err := sched.Resume(factory); err != nil {
		return nil, err
	}
	if pool.CrashPending() {
		return nil, fmt.Errorf("sweep: crash pending after a profile run of %s", a.Name)
	}
	prefix := a.SitePrefix + "/"
	hits := map[string]uint64{}
	for label, c := range pool.Snapshot().PWBsBySite {
		if strings.HasPrefix(label, prefix) {
			hits[label] = c
		}
	}
	if len(hits) == 0 {
		return nil, fmt.Errorf("sweep: structure %s registered no sites with prefix %q", a.Name, prefix)
	}
	return hits, nil
}

// planTasks expands one structure's profile into its deterministic task
// list: for every executed site, hits k = 1..min(H, MaxHits) plus the last
// profiled hit H when beyond the cap, crossed with every adversary; depth-2
// variants re-crash during recovery under the worst-case adversary.
func planTasks(a *Adapter, hits map[string]uint64, cfg *Config) []sweepTask {
	sites := make([]string, 0, len(hits))
	for s := range hits {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	var tasks []sweepTask
	for _, site := range sites {
		h := int64(hits[site])
		if h == 0 {
			if _, ok := a.Unreachable[site]; ok {
				// Declared structurally dead (and the profile agrees):
				// nothing to crash, reported as unreachable.
				continue
			}
			if _, ok := a.Scripted[site]; ok {
				// A deterministic provocation scenario reaches the site;
				// it produces exactly one hit, so only k = 1 is swept.
				for _, adv := range adversaries {
					tasks = append(tasks, sweepTask{a.Name, site, 1, adv, 1, 0, true})
				}
				if cfg.Depth >= 2 {
					tasks = append(tasks, sweepTask{a.Name, site, 1, AdvDropAll, 2, 0, true})
				}
				continue
			}
			// Contention-only site the single-threaded profile never
			// reaches. Arm its first hits under a contended multi-threaded
			// workload as a coverage top-up; the (site, hit) crash point
			// stays exact even though the interleaving around it varies.
			contended := cfg.threadsFor(a)
			if contended < 3 {
				contended = 3
			}
			for k := int64(1); k <= 2; k++ {
				for _, adv := range adversaries {
					tasks = append(tasks, sweepTask{a.Name, site, k, adv, 1, contended, false})
				}
			}
			continue
		}
		ks := []int64{}
		for k := int64(1); k <= h && k <= int64(cfg.MaxHits); k++ {
			ks = append(ks, k)
		}
		if h > int64(cfg.MaxHits) {
			ks = append(ks, h) // the site's final profiled hit
		}
		for _, k := range ks {
			for _, adv := range adversaries {
				tasks = append(tasks, sweepTask{a.Name, site, k, adv, 1, 0, false})
			}
			if cfg.Depth >= 2 {
				tasks = append(tasks, sweepTask{a.Name, site, k, AdvDropAll, 2, 0, false})
			}
		}
	}
	return tasks
}

// policyFor builds the crash adversary for one crash of a task.
func policyFor(adv string, rng *rand.Rand) pmem.CrashPolicy {
	switch adv {
	case AdvCommitAll:
		return pmem.CrashPolicy{CommitAll: true}
	case AdvRandom:
		return pmem.CrashPolicy{Rng: rng, CommitProb: 0.5, EvictProb: 0.25}
	default:
		return pmem.CrashPolicy{}
	}
}

// runProvokeTask executes one scripted provocation experiment on a fresh
// pool: the adapter's scenario stages the structure into the otherwise
// unreachable site, the Provoker crashes there with the task's adversary,
// and the scenario validates the deterministic final state.
func runProvokeTask(a *Adapter, t sweepTask, cfg *Config) TaskResult {
	res := TaskResult{
		Structure: t.structure, Site: t.site, Hit: t.hit,
		Adversary: t.adversary, Depth: t.depth, Scripted: true,
	}
	pool := cfg.newTaskPool(a, cfg.threadsFor(a)+1) // scenarios use threads 0..2
	reg := taskRegistry(pool)
	advRng := rand.New(rand.NewSource(t.taskSeed(cfg.Seed)))
	p := &Provoker{
		pool: pool, sink: reg, site: t.site, hit: t.hit, depth: t.depth,
		policy: func() pmem.CrashPolicy { return policyFor(t.adversary, advRng) },
	}
	err := a.Scripted[t.site](pool, p)
	res.Fired = p.fired
	res.Crashes = p.crashes
	switch {
	case p.err != nil:
		res.Error = p.err.Error()
	case err != nil:
		res.Violation = err.Error()
	}
	finishTaskTelemetry(reg, &res)
	return res
}

// runSweepTask executes one crash experiment on a fresh pool.
func runSweepTask(a *Adapter, t sweepTask, cfg *Config) TaskResult {
	if t.scripted {
		return runProvokeTask(a, t, cfg)
	}
	res := TaskResult{
		Structure: t.structure, Site: t.site, Hit: t.hit,
		Adversary: t.adversary, Depth: t.depth, Threads: t.threads,
	}
	var reg *telemetry.Registry
	fail := func(err error) TaskResult {
		res.Error = err.Error()
		if reg != nil {
			finishTaskTelemetry(reg, &res)
		}
		return res
	}
	threads := cfg.threadsFor(a)
	if t.threads > 0 {
		threads = t.threads
	}
	pool := cfg.newTaskPool(a, threads)
	reg = taskRegistry(pool)
	site := pool.RegisterSite(t.site) // idempotent label lookup
	sched := chaos.NewSchedule(threads, cfg.OpsPerThread, cfg.Seed, a.GenOp)
	if t.threads == 0 && threads > 1 {
		// Replay the profile's interleaving, so the k-th hit the task
		// arms is the profile's k-th hit. Top-up tasks run freely: they
		// exist to provoke contention the replayed schedule lacks.
		sched.Lockstep(pool, reg)
	}

	factory, err := a.Reattach(pool)
	if err != nil {
		return fail(err)
	}
	advRng := rand.New(rand.NewSource(t.taskSeed(cfg.Seed)))

	// arms[i] is the hit count for the i-th crash: the k-th hit for the
	// first crash, then the first re-execution of the same site during
	// each deeper recovery.
	arms := []int64{t.hit}
	for d := 1; d < t.depth; d++ {
		arms = append(arms, 1)
	}
	armed := 0
	for round := 0; ; round++ {
		if round > t.depth+1 {
			return fail(fmt.Errorf("sweep: runaway rounds (crash trigger leak?)"))
		}
		if armed < len(arms) {
			pool.SetCrashAtSite(site, arms[armed])
			armed++
		}
		if err := sched.Resume(factory); err != nil {
			return fail(err)
		}
		if !pool.CrashPending() {
			break // quota done; any unfired arm stays unfired
		}
		res.Fired++
		pool.Crash(policyFor(t.adversary, advRng))
		pool.Recover()
		res.Crashes++
		if factory, err = a.Reattach(pool); err != nil {
			return fail(err)
		}
	}
	pool.SetCrashAtSite(pmem.NoSite, 0)

	out := &chaos.Result{Crashes: res.Crashes, Logs: sched.Logs()}
	if verr := a.Validate(pool, out); verr != nil {
		res.Violation = verr.Error()
	}
	finishTaskTelemetry(reg, &res)
	return res
}

// Run runs the crash-site sweep and returns its coverage report. Given
// the same Config the task list and every task result except the
// free-running top-up tasks are deterministic.
func Run(cfg Config) (*Report, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	rep := &Report{
		Seed: cfg.Seed, Threads: cfg.Threads,
		OpsPerThread: cfg.OpsPerThread, MaxHits: cfg.MaxHits, Depth: cfg.Depth,
	}

	// Phase 1: profile every structure and plan the task matrix.
	type planned struct {
		adapter *Adapter
		hits    map[string]uint64
		tasks   []sweepTask
	}
	var plans []planned
	var tasks []sweepTask
	for _, name := range cfg.Structures {
		a, err := AdapterByName(name)
		if err != nil {
			return nil, err
		}
		hits, err := profileStructure(a, &cfg)
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", name, err)
		}
		for site, reason := range a.Unreachable {
			if hits[site] > 0 {
				return nil, fmt.Errorf("sweep: %s declares site %s unreachable (%s) but the profile hit it %d times",
					name, site, reason, hits[site])
			}
		}
		pt := planTasks(a, hits, &cfg)
		plans = append(plans, planned{a, hits, pt})
		tasks = append(tasks, pt...)
		cfg.logf("%s: %d sites profiled, %d crash tasks planned", name, len(hits), len(pt))
	}
	rep.Tasks = len(tasks)

	// Phase 2: run the matrix on a worker pool.
	type job struct {
		adapter *Adapter
		task    sweepTask
	}
	jobs := make(chan job)
	results := make(chan TaskResult, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				results <- runSweepTask(j.adapter, j.task, &cfg)
			}
		}()
	}
	go func() {
		for _, p := range plans {
			for _, t := range p.tasks {
				jobs <- job{p.adapter, t}
			}
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	done := map[string]TaskResult{}
	for r := range results {
		k := r.Key()
		done[k] = r
		if r.Violation != "" {
			cfg.logf("VIOLATION %s: %s", k, r.Violation)
		}
	}

	// Phase 3: aggregate per structure and per site, in task order.
	for _, p := range plans {
		sr := StructureReport{Name: p.adapter.Name}
		siteAgg := map[string]*SiteReport{}
		var siteOrder []string
		for site, h := range p.hits {
			if h != 0 {
				continue
			}
			if _, ok := p.adapter.Scripted[site]; ok {
				continue
			}
			if _, ok := p.adapter.Unreachable[site]; ok {
				continue
			}
			sr.UncoveredSites = append(sr.UncoveredSites, site)
		}
		sort.Strings(sr.UncoveredSites)
		if len(p.adapter.Unreachable) > 0 {
			sr.UnreachableSites = p.adapter.Unreachable
		}
		for _, t := range p.tasks {
			r := done[t.key()]
			rep.Results = append(rep.Results, r)
			agg := siteAgg[t.site]
			if agg == nil {
				agg = &SiteReport{Site: t.site, ProfileHits: p.hits[t.site], Scripted: t.scripted}
				siteAgg[t.site] = agg
				siteOrder = append(siteOrder, t.site)
			}
			sr.Tasks++
			agg.Tasks++
			sr.Crashes += r.Crashes
			if r.Fired > 0 {
				sr.FiredTasks++
				agg.FiredTasks++
			}
			if r.Violation != "" || r.Error != "" {
				sr.Violations++
				agg.Violations++
				rep.Violations++
			}
		}
		for _, site := range siteOrder {
			sr.Sites = append(sr.Sites, *siteAgg[site])
		}
		rep.Structures = append(rep.Structures, sr)
		cfg.logf("%s: %d/%d tasks fired a targeted crash, %d violations",
			sr.Name, sr.FiredTasks, sr.Tasks, sr.Violations)
	}
	return rep, nil
}
