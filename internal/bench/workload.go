package bench

// Open-loop workload engine.
//
// The harness's original loops (Run, RunOps) are closed-loop and uniform:
// every thread draws uniform keys and issues its next operation the moment
// the previous returns. That shape cannot express the evaluations this repo
// aims to widen toward — skewed key popularity, phase schedules, several
// structures sharing one pool — and, worse, it cannot *see* persistence
// stalls: a closed loop stops offering load while the structure is stuck,
// so the stall vanishes from the latency distribution (coordinated
// omission; see pacing.go).
//
// The engine here runs scenarios instead: each scenario is a set of tenants
// (structures co-resident on one pool, one durable root slot each), a loop
// discipline (open or closed), and a schedule of phases (key distribution,
// find percentage, optional arrival burst, optional injected device stall).
// Operations execute for real against the tenant structures; what is
// *modeled* is time. An operation's service time is derived from the pmem
// cost model's charge for it — OpBaseNs for the volatile work plus the
// simulated persistence stall units the operation's thread context accrued
// (ThreadCtx.SpunUnits) scaled by UnitNs — and a virtual-time pacer turns
// service times into latencies, open- or closed-loop. Everything a scenario
// does is driven by seeded generators, so a given -seed yields a
// byte-identical BENCH_workloads.json: the same determinism trade the
// recovery-latency benchmark makes with its modeled phase times.
//
// Execution is sequential (one goroutine); concurrency is simulated by the
// pacer's multi-server queue. The contention the cost model prices — line
// heat on hot cache lines — is still exercised, because all logical servers
// hammer the same structures and hot keys keep their lines hot.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/telemetry"
	"repro/internal/tracking"
)

// WorkloadsSchema tags BENCH_workloads.json; ValidateWorkloadsJSON rejects
// any other value.
const WorkloadsSchema = "repro-workloads/1"

// splitmix64 advances and hashes a 64-bit state (Steele et al., the
// SplitMix64 finalizer). Used to derive independent per-thread and
// per-phase seeds from one user seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// threadSeed derives the RNG seed for stream idx from the run seed. The
// previous scheme (seed + tid·7919) kept derived seeds within a few
// thousand of each other, and math/rand's lagged-Fibonacci seeding maps
// nearby seeds to visibly correlated streams — two threads walked
// correlated key sequences. Hashing through splitmix64 decorrelates every
// stream.
func threadSeed(seed int64, idx int) int64 {
	return int64(splitmix64(uint64(seed) + uint64(idx)*0x9e3779b97f4a7c15))
}

// preloadKeys returns the keys to preload for w: w.Preload distinct keys
// drawn uniformly from [1, w.KeyRange] (a partial Fisher-Yates shuffle), in
// a deterministic order given rng. The previous preload drew keys with
// replacement, so collisions made actual occupancy undershoot the
// configured count — by ~21% in expectation at Preload = KeyRange/2,
// approaching 1/e·Preload as Preload nears KeyRange — silently lightening
// every "half-full" workload. Requests beyond KeyRange clamp to a full
// structure.
func preloadKeys(w Workload, rng *rand.Rand) []int64 {
	n := w.Preload
	if int64(n) > w.KeyRange {
		n = int(w.KeyRange)
	}
	if n <= 0 {
		return nil
	}
	keys := make([]int64, w.KeyRange)
	for i := range keys {
		keys[i] = int64(i) + 1
	}
	for i := 0; i < n; i++ {
		j := i + int(rng.Int63n(int64(len(keys)-i)))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys[:n]
}

// DistKind names a key-popularity distribution.
type DistKind string

// The key distributions.
const (
	// DistUniform draws keys uniformly from [1, KeyRange].
	DistUniform DistKind = "uniform"
	// DistZipfian draws key ranks from a Zipfian distribution with
	// parameter Theta (rank 1 = hottest key).
	DistZipfian DistKind = "zipfian"
	// DistHotKey sends HotOpsPct percent of operations to the first
	// HotKeysPct percent of the key range, uniform within each class.
	DistHotKey DistKind = "hotkey"
)

// KeyDist configures a key-popularity distribution.
type KeyDist struct {
	Kind DistKind
	// Theta is the Zipfian skew in [0, 1) (DistZipfian; 0.99 is the
	// YCSB default).
	Theta float64
	// HotOpsPct is the share of operations directed at the hot set
	// (DistHotKey).
	HotOpsPct int
	// HotKeysPct is the hot set's share of the key range (DistHotKey).
	HotKeysPct int
}

// label renders the distribution for reports ("uniform", "zipfian-0.99",
// "hot-90/10").
func (d KeyDist) label() string {
	switch d.Kind {
	case DistZipfian:
		return fmt.Sprintf("zipfian-%.2f", d.Theta)
	case DistHotKey:
		return fmt.Sprintf("hot-%d/%d", d.HotOpsPct, d.HotKeysPct)
	default:
		return string(DistUniform)
	}
}

// keyGen draws keys in [1, keyRange] from one distribution.
type keyGen interface {
	next(rng *rand.Rand) int64
}

type uniformGen struct{ n int64 }

func (g uniformGen) next(rng *rand.Rand) int64 { return rng.Int63n(g.n) + 1 }

// hotGen sends opsPct percent of draws to the hot prefix [1, hot].
type hotGen struct {
	n, hot int64
	opsPct int
}

func (g hotGen) next(rng *rand.Rand) int64 {
	if rng.Intn(100) < g.opsPct || g.hot >= g.n {
		return rng.Int63n(g.hot) + 1
	}
	return g.hot + 1 + rng.Int63n(g.n-g.hot)
}

// zipfGen draws ranks with probability proportional to 1/r^theta (rank 1 =
// hottest key) by exact inverse-CDF lookup over a precomputed cumulative
// table. The usual YCSB continuous inversion (Gray et al.) over-samples the
// ranks just past its exact head cases by ~15% at θ≈1, and math/rand's own
// Zipf type cannot express the θ < 1 skews the evaluated systems report; at
// the key ranges the harness uses (≤ a few thousand) the exact table is
// cheap to build and a binary search per draw.
type zipfGen struct {
	cum []float64 // cum[i] = P(rank <= i+1)
}

func newZipfGen(n int64, theta float64) *zipfGen {
	cum := make([]float64, n)
	sum := 0.0
	for i := int64(0); i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cum[i] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	cum[n-1] = 1
	return &zipfGen{cum: cum}
}

func (g *zipfGen) next(rng *rand.Rand) int64 {
	u := rng.Float64()
	lo, hi := 0, len(g.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(lo) + 1
}

// newKeyGen builds the generator for d over [1, keyRange].
func newKeyGen(d KeyDist, keyRange int64) keyGen {
	switch d.Kind {
	case DistZipfian:
		theta := d.Theta
		if theta <= 0 || theta >= 1 {
			theta = 0.99
		}
		return newZipfGen(keyRange, theta)
	case DistHotKey:
		opsPct := d.HotOpsPct
		if opsPct <= 0 {
			opsPct = 90
		}
		keysPct := d.HotKeysPct
		if keysPct <= 0 {
			keysPct = 10
		}
		hot := keyRange * int64(keysPct) / 100
		if hot < 1 {
			hot = 1
		}
		return hotGen{n: keyRange, hot: hot, opsPct: opsPct}
	default:
		return uniformGen{n: keyRange}
	}
}

// Tenant is one structure in a scenario's mix, co-resident with the others
// on the scenario's pool.
type Tenant struct {
	// Algo selects the implementation.
	Algo Algo
	// Weight is this tenant's share of the operation stream (0 acts as 1).
	Weight int
	// KeyRange bounds the tenant's keys to [1, KeyRange].
	KeyRange int64
	// Preload is the number of distinct keys inserted before measuring.
	Preload int
	// Shards is the shard count for an AlgoKVStore tenant (0 takes the
	// store's default). The shards all live behind the tenant's single
	// root slot — its interior shard directory — so a 64-shard store
	// consumes exactly one of the pool's root slots. Ignored by the flat
	// structures.
	Shards int
}

// WorkloadPhase is one segment of a scenario's schedule.
type WorkloadPhase struct {
	// Name labels the phase in reports ("read-heavy", "burst", ...).
	Name string
	// Dist is the phase's key distribution.
	Dist KeyDist
	// FindPct is the percentage of Finds; the rest split evenly between
	// Insert and Delete.
	FindPct int
	// Ops overrides WorkloadOptions.OpsPerPhase when positive.
	Ops int
	// BurstX multiplies the open-loop arrival rate for this phase (0 or 1:
	// no burst). Closed-loop scenarios ignore it.
	BurstX int
	// StallEveryOps, when positive, injects a device-wide persistence
	// stall of StallNs after every StallEveryOps-th operation: the
	// operation's own service time stretches by StallNs and every modeled
	// server blocks until it completes (a psync write-buffer drain gates
	// the whole device, not one thread). This is the coordinated-omission
	// probe: a closed loop records the stretched operations only, an open
	// loop records the queue that piles up behind them.
	StallEveryOps int
	// StallNs is the injected stall's length in virtual nanoseconds.
	StallNs int64
}

// Scenario is one workload: tenants, a loop discipline, and a phase
// schedule.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Tenants lists the structures sharing the scenario's pool (at most
	// pmem.NumRootSlots).
	Tenants []Tenant
	// OpenLoop selects open-loop pacing; false measures closed-loop.
	OpenLoop bool
	// TargetUtilPct is the open-loop offered load as a percentage of the
	// modeled service capacity (0 acts as 60). The arrival gap is
	// calibrated against the scenario's measured mean service time.
	TargetUtilPct int
	// ArrivalGapNs, when positive, fixes the open-loop mean inter-arrival
	// gap instead of calibrating it from TargetUtilPct. A/B scenario pairs
	// use the same fixed gap so both sides face identical offered load —
	// otherwise per-scenario calibration re-normalizes a service-time win
	// into equal utilization and hides it from the tail.
	ArrivalGapNs int64
	// Phases is the schedule, run in order over one pacer, so backlog
	// carries across phase boundaries.
	Phases []WorkloadPhase
}

// WorkloadOptions configures a Workloads run.
type WorkloadOptions struct {
	// Seed drives every generator; a given seed yields byte-identical
	// report JSON (0 acts as 1).
	Seed int64
	// Threads is the number of modeled servers (0 acts as 4).
	Threads int
	// OpsPerPhase is the default operation count per phase (0 acts as
	// 12000).
	OpsPerPhase int
	// OpBaseNs is the modeled volatile cost of one operation (0 acts as
	// 250).
	OpBaseNs int64
	// UnitNs scales pmem stall units to nanoseconds (0 acts as 1).
	UnitNs int64
	// Scenarios overrides DefaultWorkloadScenarios when non-empty.
	Scenarios []Scenario
}

// WorkloadReport is the exported result of a Workloads run
// (BENCH_workloads.json).
type WorkloadReport struct {
	// Schema is always WorkloadsSchema.
	Schema string `json:"schema"`
	// Seed is the seed the run used.
	Seed int64 `json:"seed"`
	// Threads is the number of modeled servers.
	Threads int `json:"threads"`
	// OpsPerPhase is the default per-phase operation count.
	OpsPerPhase int `json:"ops_per_phase"`
	// OpBaseNs is the modeled volatile cost per operation.
	OpBaseNs int64 `json:"op_base_ns"`
	// UnitNs is the stall-unit-to-nanosecond scale.
	UnitNs int64 `json:"unit_ns"`
	// Scenarios holds one entry per scenario, in run order.
	Scenarios []ScenarioReport `json:"scenarios"`
}

// ScenarioReport is one scenario's result.
type ScenarioReport struct {
	// Name is the scenario's label.
	Name string `json:"name"`
	// Loop is "open" or "closed".
	Loop string `json:"loop"`
	// Tenants echoes the tenant mix.
	Tenants []TenantReport `json:"tenants"`
	// TargetUtilPct is the calibrated open-loop utilization target
	// (omitted for closed loop).
	TargetUtilPct int `json:"target_util_pct,omitempty"`
	// ArrivalGapNs is the calibrated mean inter-arrival gap (omitted for
	// closed loop).
	ArrivalGapNs int64 `json:"arrival_gap_ns,omitempty"`
	// CalibMeanServiceNs is the mean service time measured by the
	// calibration prefix.
	CalibMeanServiceNs int64 `json:"calib_mean_service_ns"`
	// Phases holds one entry per phase, in schedule order.
	Phases []PhaseReport `json:"phases"`
	// KVStores reports each kvstore tenant's shard traffic and whole-store
	// recovery cost (present only when the scenario has sharded tenants).
	KVStores []KVStoreReport `json:"kvstores,omitempty"`
}

// TenantReport echoes one tenant's configuration.
type TenantReport struct {
	// Algo is the implementation's label.
	Algo string `json:"algo"`
	// Weight is the tenant's resolved traffic share.
	Weight int `json:"weight"`
	// KeyRange is the tenant's key range.
	KeyRange int64 `json:"key_range"`
	// Preload is the number of distinct preloaded keys.
	Preload int `json:"preload"`
	// Shards is the kvstore tenant's resolved shard count (omitted for
	// the flat structures).
	Shards int `json:"shards,omitempty"`
}

// KVStoreReport is one kvstore tenant's shard traffic and recovery cost.
// The recovery_* fields come from re-running whole-store recovery over the
// scenario's final durable state and are persistence-instruction deltas,
// not wall clocks, so the report stays byte-identical given a seed.
type KVStoreReport struct {
	// Tenant is the index into the scenario's Tenants.
	Tenant int `json:"tenant"`
	// Shards is the store's shard count.
	Shards int `json:"shards"`
	// ShardOps is the number of operations routed to each shard over the
	// whole scenario (preload and calibration included) — the per-shard
	// throughput split.
	ShardOps []uint64 `json:"shard_ops"`
	// LiveBlocks is the number of value blocks live after recovery.
	LiveBlocks uint64 `json:"live_blocks"`
	// RecoverySlotsReconciled counts slots recovery had to tombstone.
	RecoverySlotsReconciled uint64 `json:"recovery_slots_reconciled"`
	// RecoveryLeaksReclaimed counts blocks RecoverGC swept back.
	RecoveryLeaksReclaimed uint64 `json:"recovery_leaks_reclaimed"`
	// RecoveryPWBs is the write-backs whole-store recovery issued.
	RecoveryPWBs uint64 `json:"recovery_pwbs"`
	// RecoveryPSyncs is the syncs whole-store recovery issued.
	RecoveryPSyncs uint64 `json:"recovery_psyncs"`
}

// PhaseReport is one phase's measured latencies and persistence costs.
type PhaseReport struct {
	// Name is the phase's label.
	Name string `json:"name"`
	// Dist is the key distribution's label.
	Dist string `json:"dist"`
	// FindPct is the phase's find percentage.
	FindPct int `json:"find_pct"`
	// BurstX is the phase's arrival-rate multiplier, when bursting.
	BurstX int `json:"burst_x,omitempty"`
	// StallEveryOps is the injected-stall period, when stalling.
	StallEveryOps int `json:"stall_every_ops,omitempty"`
	// StallNs is the injected stall length, when stalling.
	StallNs int64 `json:"stall_ns,omitempty"`
	// Ops is the number of operations the phase ran.
	Ops int `json:"ops"`
	// SpanNs is the phase's virtual-time span (dispatch of its first
	// operation to completion of its last).
	SpanNs int64 `json:"span_ns"`
	// OpsPerSec is Ops over SpanNs.
	OpsPerSec float64 `json:"ops_per_sec"`
	// MeanNs is the mean recorded latency across all classes.
	MeanNs float64 `json:"mean_ns"`
	// P50Ns..P99_9Ns are latency quantiles over all classes, from the
	// telemetry histograms (so at sub-bucket resolution, ±6.25%).
	P50Ns uint64 `json:"p50_ns"`
	// P90Ns is the 90th percentile.
	P90Ns uint64 `json:"p90_ns"`
	// P99Ns is the 99th percentile.
	P99Ns uint64 `json:"p99_ns"`
	// P99_9Ns is the 99.9th percentile — the quantile the open loop exists
	// to make honest.
	P99_9Ns uint64 `json:"p99_9_ns"`
	// MaxNs is the exact maximum recorded latency (not bucketed).
	MaxNs int64 `json:"max_ns"`
	// PWBsPerOp is recorded write-backs per operation over the phase.
	PWBsPerOp float64 `json:"pwbs_per_op"`
	// PSyncsPerOp is executed psyncs per operation over the phase.
	PSyncsPerOp float64 `json:"psyncs_per_op"`
	// Classes breaks the latency distribution down by operation class.
	Classes []ClassReport `json:"classes"`
}

// ClassReport is one operation class's latency summary within a phase.
type ClassReport struct {
	// Op is the class name ("find", "insert", "delete").
	Op string `json:"op"`
	// Count is the number of operations of the class.
	Count uint64 `json:"count"`
	// MeanNs is the class's mean latency.
	MeanNs float64 `json:"mean_ns"`
	// P50Ns is the class's median latency.
	P50Ns uint64 `json:"p50_ns"`
	// P99Ns is the class's 99th percentile.
	P99Ns uint64 `json:"p99_ns"`
	// P99_9Ns is the class's 99.9th percentile.
	P99_9Ns uint64 `json:"p99_9_ns"`
}

// runnerCtx invokes a runner factory and returns the thread context the
// factory registered for it, located as the newest context the instance
// tracks (every factory call creates exactly one). The workload engine
// needs the context to read the spin units charged across one operation.
func (inst *instance) runnerCtx(factory func(int) opRunner, tid int) (opRunner, *pmem.ThreadCtx) {
	inst.mu.Lock()
	before := len(inst.ctxs)
	inst.mu.Unlock()
	run := factory(tid)
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if len(inst.ctxs) == before {
		return run, nil
	}
	return run, inst.ctxs[len(inst.ctxs)-1]
}

// workloadPoolWords sizes each scenario's arena (16 MiB): comfortable for
// the default matrix's preloads plus tens of thousands of inserts, small
// enough that the full scenario matrix in sequence stays cheap.
const workloadPoolWords = 1 << 21

// tenantRT is one logical server's runner for one tenant.
type tenantRT struct {
	run opRunner
	ctx *pmem.ThreadCtx
}

// kvTenantRun tracks one kvstore tenant's live store for post-run
// reporting.
type kvTenantRun struct {
	tenant int
	store  *kvstore.Store
}

// scenarioRun is one scenario's constructed state.
type scenarioRun struct {
	inst        *instance
	sc          Scenario
	rt          [][]tenantRT // [server][tenant]
	weights     []int
	totalWeight int
	kv          []kvTenantRun
}

// buildScenario constructs the scenario's pool, tenants (one root slot
// each) and per-server runners, and preloads every tenant with distinct
// keys.
func buildScenario(sc Scenario, threads int, seed int64) (*scenarioRun, error) {
	if len(sc.Tenants) == 0 {
		return nil, fmt.Errorf("no tenants")
	}
	if len(sc.Tenants) > pmem.NumRootSlots {
		return nil, fmt.Errorf("%d tenants exceed %d root slots",
			len(sc.Tenants), pmem.NumRootSlots)
	}
	if len(sc.Phases) == 0 {
		return nil, fmt.Errorf("no phases")
	}
	maxThreads := threads*len(sc.Tenants) + 1
	pool := pmem.New(pmem.Config{
		Mode:          pmem.ModeFast,
		CapacityWords: workloadPoolWords,
		MaxThreads:    maxThreads,
	})
	run := &scenarioRun{inst: &instance{pool: pool}, sc: sc}
	factories := make([]func(int) opRunner, len(sc.Tenants))
	for ti, t := range sc.Tenants {
		var f func(int) opRunner
		var err error
		if t.Algo == AlgoKVStore {
			var s *kvstore.Store
			f, s, err = newKVTenant(run.inst, t, maxThreads, ti)
			if err == nil {
				run.kv = append(run.kv, kvTenantRun{tenant: ti, store: s})
			}
		} else {
			f, err = newStructure(run.inst, t.Algo, maxThreads, ti, workloadPoolWords/8, tracking.Paper)
		}
		if err != nil {
			return nil, err
		}
		factories[ti] = f
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		run.weights = append(run.weights, w)
		run.totalWeight += w
		pre := f(0)
		rng := rand.New(rand.NewSource(threadSeed(seed, 0x500+ti)))
		for _, key := range preloadKeys(Workload{KeyRange: t.KeyRange, Preload: t.Preload}, rng) {
			pre.Insert(key)
		}
	}
	run.rt = make([][]tenantRT, threads)
	for s := 0; s < threads; s++ {
		run.rt[s] = make([]tenantRT, len(sc.Tenants))
		for ti := range sc.Tenants {
			tid := 1 + s*len(sc.Tenants) + ti
			r, ctx := run.inst.runnerCtx(factories[ti], tid)
			run.rt[s][ti] = tenantRT{run: r, ctx: ctx}
		}
	}
	return run, nil
}

// gens builds the per-tenant key generators for one phase.
func (r *scenarioRun) gens(ph WorkloadPhase) []keyGen {
	out := make([]keyGen, len(r.sc.Tenants))
	for i, t := range r.sc.Tenants {
		out[i] = newKeyGen(ph.Dist, t.KeyRange)
	}
	return out
}

// draw picks one operation: a weighted tenant, an operation class per the
// phase mix, and a key from the tenant's generator.
func (r *scenarioRun) draw(rng *rand.Rand, ph WorkloadPhase, gens []keyGen) (int, telemetry.Op, int64) {
	ti := 0
	if len(gens) > 1 {
		w := rng.Intn(r.totalWeight)
		for i, wi := range r.weights {
			if w < wi {
				ti = i
				break
			}
			w -= wi
		}
	}
	op := telemetry.OpFind
	if rng.Intn(100) >= ph.FindPct {
		if rng.Intn(2) == 0 {
			op = telemetry.OpInsert
		} else {
			op = telemetry.OpDelete
		}
	}
	return ti, op, gens[ti].next(rng)
}

// exec runs one operation on server s's runner for tenant ti and returns
// the pmem stall units it was charged.
func (r *scenarioRun) exec(s, ti int, op telemetry.Op, key int64) uint64 {
	rt := r.rt[s][ti]
	var before uint64
	if rt.ctx != nil {
		before = rt.ctx.SpunUnits()
	}
	switch op {
	case telemetry.OpInsert:
		rt.run.Insert(key)
	case telemetry.OpDelete:
		rt.run.Delete(key)
	default:
		rt.run.Find(key)
	}
	if rt.ctx != nil {
		return rt.ctx.SpunUnits() - before
	}
	return 0
}

// runScenario executes one scenario and assembles its report.
func runScenario(sc Scenario, idx int, opts WorkloadOptions) (ScenarioReport, error) {
	seed := threadSeed(opts.Seed, 0x1000+idx)
	run, err := buildScenario(sc, opts.Threads, seed)
	if err != nil {
		return ScenarioReport{}, err
	}
	rep := ScenarioReport{Name: sc.Name, Loop: "closed"}
	if sc.OpenLoop {
		rep.Loop = "open"
	}
	kvByTenant := map[int]*kvstore.Store{}
	for _, kt := range run.kv {
		kvByTenant[kt.tenant] = kt.store
	}
	for ti, t := range sc.Tenants {
		tr := TenantReport{
			Algo: string(t.Algo), Weight: run.weights[ti],
			KeyRange: t.KeyRange, Preload: t.Preload,
		}
		if s := kvByTenant[ti]; s != nil {
			tr.Shards = s.NumShards()
		}
		rep.Tenants = append(rep.Tenants, tr)
	}

	p := newPacer(opts.Threads, sc.OpenLoop,
		rand.New(rand.NewSource(threadSeed(seed, 0x7777))))

	// Calibration prefix: a closed-loop run of the first phase's mix on the
	// live structures. It warms the cost model's line heat and measures the
	// mean service time the open-loop arrival gap is derived from.
	calOps := opts.OpsPerPhase / 10
	if calOps > 2000 {
		calOps = 2000
	}
	if calOps < 200 {
		calOps = 200
	}
	ph0 := sc.Phases[0]
	crng := rand.New(rand.NewSource(threadSeed(seed, 0x8888)))
	g0 := run.gens(ph0)
	var calServiceNs int64
	for i := 0; i < calOps; i++ {
		ti, op, key := run.draw(crng, ph0, g0)
		s := p.pickServer()
		units := run.exec(s, ti, op, key)
		svc := opts.OpBaseNs + int64(units)*opts.UnitNs
		p.dispatchClosed(s, svc)
		calServiceNs += svc
	}
	rep.CalibMeanServiceNs = calServiceNs / int64(calOps)

	var gap int64
	if sc.OpenLoop {
		if sc.ArrivalGapNs > 0 {
			gap = sc.ArrivalGapNs
		} else {
			util := sc.TargetUtilPct
			if util <= 0 {
				util = 60
			}
			rep.TargetUtilPct = util
			// At utilization u over T servers, intended arrivals come every
			// meanService / (u·T) nanoseconds.
			gap = rep.CalibMeanServiceNs * 100 / (int64(util) * int64(opts.Threads))
			if gap < 1 {
				gap = 1
			}
		}
		rep.ArrivalGapNs = gap
		p.alignArrival()
	}

	for pi, ph := range sc.Phases {
		ops := ph.Ops
		if ops <= 0 {
			ops = opts.OpsPerPhase
		}
		if sc.OpenLoop {
			g := gap
			if ph.BurstX > 1 {
				g = gap / int64(ph.BurstX)
				if g < 1 {
					g = 1
				}
			}
			p.setGap(g)
		}
		prng := rand.New(rand.NewSource(threadSeed(seed, 0x100+pi)))
		gens := run.gens(ph)
		reg := telemetry.NewRegistry(telemetry.Config{})
		vstart := p.horizon()
		base := run.inst.pool.Snapshot()
		var maxLat int64
		for i := 0; i < ops; i++ {
			ti, op, key := run.draw(prng, ph, gens)
			s := p.pickServer()
			units := run.exec(s, ti, op, key)
			svc := opts.OpBaseNs + int64(units)*opts.UnitNs
			stall := ph.StallEveryOps > 0 && (i+1)%ph.StallEveryOps == 0
			if stall {
				svc += ph.StallNs
			}
			lat := p.dispatch(s, svc)
			if stall {
				p.blockAll(s)
			}
			reg.RecordOp(s, op, lat)
			if lat > maxLat {
				maxLat = lat
			}
		}
		span := p.horizon() - vstart
		if span < 1 {
			span = 1
		}
		delta := run.inst.pool.Snapshot().Sub(base)
		snap := reg.Snapshot()
		all := telemetry.Combine("all", snap.Ops...)
		pr := PhaseReport{
			Name: ph.Name, Dist: ph.Dist.label(), FindPct: ph.FindPct,
			BurstX: ph.BurstX, StallEveryOps: ph.StallEveryOps, StallNs: ph.StallNs,
			Ops: ops, SpanNs: span,
			OpsPerSec: float64(ops) * 1e9 / float64(span),
			MeanNs:    all.MeanNs,
			P50Ns:     all.P50Ns, P90Ns: all.P90Ns,
			P99Ns: all.P99Ns, P99_9Ns: all.P99_9Ns,
			MaxNs:       maxLat,
			PWBsPerOp:   float64(delta.PWBs) / float64(ops),
			PSyncsPerOp: float64(delta.PSyncs) / float64(ops),
		}
		if pr.Name == "" {
			pr.Name = fmt.Sprintf("phase%d", pi+1)
		}
		for _, h := range snap.Ops {
			pr.Classes = append(pr.Classes, ClassReport{
				Op: h.Op, Count: h.Count, MeanNs: h.MeanNs,
				P50Ns: h.P50Ns, P99Ns: h.P99Ns, P99_9Ns: h.P99_9Ns,
			})
		}
		rep.Phases = append(rep.Phases, pr)
	}
	for _, kt := range run.kv {
		kr, err := kvTenantReport(run, kt.tenant, kt.store)
		if err != nil {
			return ScenarioReport{}, err
		}
		rep.KVStores = append(rep.KVStores, kr)
	}
	return rep, nil
}

// Workloads runs the configured scenarios (DefaultWorkloadScenarios when
// none are given) and returns the assembled report. Deterministic: the same
// options yield a byte-identical MarshalIndentJSON.
func Workloads(opts WorkloadOptions) (*WorkloadReport, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Threads <= 0 {
		opts.Threads = 4
	}
	if opts.OpsPerPhase <= 0 {
		opts.OpsPerPhase = 12000
	}
	if opts.OpBaseNs <= 0 {
		opts.OpBaseNs = 250
	}
	if opts.UnitNs <= 0 {
		opts.UnitNs = 1
	}
	scenarios := opts.Scenarios
	if len(scenarios) == 0 {
		scenarios = DefaultWorkloadScenarios()
	}
	rep := &WorkloadReport{
		Schema: WorkloadsSchema, Seed: opts.Seed, Threads: opts.Threads,
		OpsPerPhase: opts.OpsPerPhase, OpBaseNs: opts.OpBaseNs, UnitNs: opts.UnitNs,
	}
	for i, sc := range scenarios {
		sr, err := runScenario(sc, i, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: workload scenario %q: %w", sc.Name, err)
		}
		rep.Scenarios = append(rep.Scenarios, sr)
	}
	return rep, nil
}

// MarshalIndentJSON renders the report as indented JSON.
func (r *WorkloadReport) MarshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// DefaultWorkloadScenarios is the checked-in matrix: three skew levels and
// two mixes over the Tracking hash map, each uniform/zipfian point both
// closed- and open-loop; a stall pair demonstrating coordinated omission; a
// read→write→burst phase schedule; a multi-tenant list+hash mix; the
// sharded kvstore at 16, 32 and 64 shards; and a read-heavy kvstore point
// at a fixed arrival gap.
func DefaultWorkloadScenarios() []Scenario {
	hash := Tenant{Algo: AlgoTrackingMap, KeyRange: 4096, Preload: 2048}
	list := Tenant{Algo: AlgoTracking, KeyRange: 512, Preload: 256}
	uniform := KeyDist{Kind: DistUniform}
	zipf := KeyDist{Kind: DistZipfian, Theta: 0.99}
	hot := KeyDist{Kind: DistHotKey, HotOpsPct: 90, HotKeysPct: 10}

	var out []Scenario
	dists := []struct {
		name string
		d    KeyDist
	}{{"uniform", uniform}, {"zipf99", zipf}}
	mixes := []struct {
		name    string
		findPct int
	}{{"read", 90}, {"update", 30}}
	for _, d := range dists {
		for _, m := range mixes {
			for _, open := range []bool{false, true} {
				loop := "closed"
				if open {
					loop = "open"
				}
				out = append(out, Scenario{
					Name:     fmt.Sprintf("%s-%s-%s", d.name, m.name, loop),
					Tenants:  []Tenant{hash},
					OpenLoop: open,
					Phases: []WorkloadPhase{
						{Name: "steady", Dist: d.d, FindPct: m.findPct},
					},
				})
			}
		}
	}
	out = append(out, Scenario{
		Name: "hot90-update-open", Tenants: []Tenant{hash}, OpenLoop: true,
		Phases: []WorkloadPhase{{Name: "steady", Dist: hot, FindPct: 30}},
	})
	// The coordinated-omission pair: the same injected device stall, first
	// measured closed-loop (hidden), then open-loop (visible at p99.9). The
	// open run targets low utilization so the tail elevation is the stall's
	// queue, not ambient queueing.
	stall := WorkloadPhase{
		Name: "stalls", Dist: uniform, FindPct: 30,
		StallEveryOps: 4000, StallNs: 100_000,
	}
	out = append(out,
		Scenario{Name: "stall-update-closed", Tenants: []Tenant{hash},
			Phases: []WorkloadPhase{stall}},
		Scenario{Name: "stall-update-open", Tenants: []Tenant{hash},
			OpenLoop: true, TargetUtilPct: 30,
			Phases: []WorkloadPhase{stall}},
	)
	out = append(out, Scenario{
		Name: "phases-read-write-burst-open", Tenants: []Tenant{hash}, OpenLoop: true,
		Phases: []WorkloadPhase{
			{Name: "read-heavy", Dist: zipf, FindPct: 90},
			{Name: "write-heavy", Dist: zipf, FindPct: 30},
			{Name: "burst", Dist: zipf, FindPct: 90, BurstX: 4},
		},
	})
	out = append(out, Scenario{
		Name:    "multitenant-list-hash-open",
		Tenants: []Tenant{list, hash}, OpenLoop: true,
		Phases: []WorkloadPhase{{Name: "steady", Dist: zipf, FindPct: 50}},
	})
	// The sharded kvstore at three widths over the same range and mix: the
	// rows expose how shard width spreads throughput across the interior
	// directory (shard_ops) and what whole-store recovery costs as a
	// function of width (the recovery_* persistence deltas), while every
	// width — 64 shards included — occupies a single root slot.
	for _, shards := range []int{16, 32, 64} {
		out = append(out, Scenario{
			Name: fmt.Sprintf("kvstore-%dshard-update-open", shards),
			Tenants: []Tenant{
				{Algo: AlgoKVStore, KeyRange: 4096, Preload: 2048, Shards: shards},
			},
			OpenLoop: true,
			Phases:   []WorkloadPhase{{Name: "steady", Dist: zipf, FindPct: 50}},
		})
	}
	// The read-heavy zipfian kvstore open-loop point: hot slots are
	// written once and read many times. It runs under a fixed arrival gap
	// (a ~75%-utilization calibration), so a service-time change shows in
	// its tail instead of being re-normalized away.
	out = append(out, Scenario{
		Name: "kvstore-32shard-read-open",
		Tenants: []Tenant{
			{Algo: AlgoKVStore, KeyRange: 4096, Preload: 2048, Shards: 32},
		},
		OpenLoop:     true,
		ArrivalGapNs: 181,
		Phases:       []WorkloadPhase{{Name: "steady", Dist: zipf, FindPct: 90}},
	})
	return out
}

// ValidateWorkloadsJSON checks that data is a well-formed workloads report:
// current schema tag, no unknown fields, and internally consistent
// scenarios (ordered quantiles, class counts summing to the phase's
// operations, a calibrated arrival gap on every open-loop scenario). This
// is the contract the bench-workloads CI gate enforces via telemetryvet.
func ValidateWorkloadsJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r WorkloadReport
	if err := dec.Decode(&r); err != nil {
		return fmt.Errorf("workloads: decode report: %w", err)
	}
	if r.Schema != WorkloadsSchema {
		return fmt.Errorf("workloads: schema %q, want %q", r.Schema, WorkloadsSchema)
	}
	if r.Threads <= 0 || r.OpsPerPhase <= 0 || r.OpBaseNs <= 0 || r.UnitNs <= 0 {
		return fmt.Errorf("workloads: non-positive run parameters")
	}
	if len(r.Scenarios) == 0 {
		return fmt.Errorf("workloads: no scenarios")
	}
	for _, sc := range r.Scenarios {
		if sc.Name == "" {
			return fmt.Errorf("workloads: scenario with empty name")
		}
		if sc.Loop != "open" && sc.Loop != "closed" {
			return fmt.Errorf("workloads: scenario %q loop %q", sc.Name, sc.Loop)
		}
		if sc.Loop == "open" && sc.ArrivalGapNs <= 0 {
			return fmt.Errorf("workloads: open-loop scenario %q without arrival gap", sc.Name)
		}
		if len(sc.Tenants) == 0 {
			return fmt.Errorf("workloads: scenario %q has no tenants", sc.Name)
		}
		sharded := 0
		for _, t := range sc.Tenants {
			if t.Algo == "" || t.Weight <= 0 || t.KeyRange <= 0 || t.Preload < 0 || t.Shards < 0 {
				return fmt.Errorf("workloads: scenario %q has a malformed tenant", sc.Name)
			}
			if t.Shards > 0 {
				sharded++
			}
		}
		if len(sc.KVStores) != sharded {
			return fmt.Errorf("workloads: scenario %q has %d kvstore reports for %d sharded tenants",
				sc.Name, len(sc.KVStores), sharded)
		}
		for _, kv := range sc.KVStores {
			if kv.Tenant < 0 || kv.Tenant >= len(sc.Tenants) {
				return fmt.Errorf("workloads: scenario %q kvstore report names tenant %d of %d",
					sc.Name, kv.Tenant, len(sc.Tenants))
			}
			if kv.Shards <= 0 || kv.Shards != sc.Tenants[kv.Tenant].Shards {
				return fmt.Errorf("workloads: scenario %q kvstore shard count %d != tenant echo %d",
					sc.Name, kv.Shards, sc.Tenants[kv.Tenant].Shards)
			}
			if len(kv.ShardOps) != kv.Shards {
				return fmt.Errorf("workloads: scenario %q kvstore has %d shard-ops rows for %d shards",
					sc.Name, len(kv.ShardOps), kv.Shards)
			}
			var routed uint64
			for _, n := range kv.ShardOps {
				routed += n
			}
			if routed == 0 {
				return fmt.Errorf("workloads: scenario %q kvstore saw no shard traffic", sc.Name)
			}
			// A quiescent final state needs no repair writes, but recovery
			// always syncs its per-shard reconciliation, so a zero psync
			// count means the recovery re-run never happened.
			if kv.RecoveryPSyncs == 0 {
				return fmt.Errorf("workloads: scenario %q kvstore recovery cost not populated", sc.Name)
			}
		}
		if len(sc.Phases) == 0 {
			return fmt.Errorf("workloads: scenario %q has no phases", sc.Name)
		}
		for _, ph := range sc.Phases {
			if ph.Name == "" || ph.Dist == "" {
				return fmt.Errorf("workloads: scenario %q has an unlabelled phase", sc.Name)
			}
			if ph.FindPct < 0 || ph.FindPct > 100 {
				return fmt.Errorf("workloads: scenario %q phase %q find_pct %d",
					sc.Name, ph.Name, ph.FindPct)
			}
			if ph.Ops <= 0 || ph.SpanNs <= 0 || ph.OpsPerSec <= 0 {
				return fmt.Errorf("workloads: scenario %q phase %q has non-positive totals",
					sc.Name, ph.Name)
			}
			if ph.P50Ns > ph.P90Ns || ph.P90Ns > ph.P99Ns || ph.P99Ns > ph.P99_9Ns {
				return fmt.Errorf("workloads: scenario %q phase %q quantiles not ordered "+
					"(p50=%d p90=%d p99=%d p99.9=%d)",
					sc.Name, ph.Name, ph.P50Ns, ph.P90Ns, ph.P99Ns, ph.P99_9Ns)
			}
			if ph.P99_9Ns == 0 || ph.MaxNs <= 0 {
				return fmt.Errorf("workloads: scenario %q phase %q tail not populated",
					sc.Name, ph.Name)
			}
			if ph.PWBsPerOp < 0 || ph.PSyncsPerOp < 0 {
				return fmt.Errorf("workloads: scenario %q phase %q has negative persistence counts (pwbs_per_op %.3f, psyncs_per_op %.3f)",
					sc.Name, ph.Name, ph.PWBsPerOp, ph.PSyncsPerOp)
			}
			var classOps uint64
			for _, c := range ph.Classes {
				if c.Op == "" || c.Count == 0 {
					return fmt.Errorf("workloads: scenario %q phase %q has an empty class",
						sc.Name, ph.Name)
				}
				if c.P50Ns > c.P99Ns || c.P99Ns > c.P99_9Ns {
					return fmt.Errorf("workloads: scenario %q phase %q class %q quantiles not ordered",
						sc.Name, ph.Name, c.Op)
				}
				classOps += c.Count
			}
			if classOps != uint64(ph.Ops) {
				return fmt.Errorf("workloads: scenario %q phase %q class counts sum %d != ops %d",
					sc.Name, ph.Name, classOps, ph.Ops)
			}
		}
	}
	return nil
}
