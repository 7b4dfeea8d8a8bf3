package main

import (
	"math"
	"sort"
	"strings"

	"repro/internal/pmem"
)

// metricDef names one metric. Times are host wall-clock of the simulator
// (ModeFast's spin charges are real CPU time and so are inside them);
// write-back, sync, spin-unit and pool-word counts are quantities of the
// simulated device and are labelled so.
type metricDef struct {
	name      string
	unit      string
	simulated bool
}

// pick chooses a run's value of the metric from the quartiles of its
// rounds. A simulated-device count barely moves between rounds and is
// reported as the median. A host time is reported as the quartile on its
// good side - the first for a latency, the third for a throughput: on a
// shared host interference only ever slows a round, by bursts that last
// several rounds, so the median of some sixteen rounds wanders with how many
// of them a burst caught while the good-side quartile stays with the
// undisturbed rounds (measured here: the spread of read_p99_ns over ten
// runs of list-update-heavy is 15% by medians and 4% this way). It is still
// a quartile, not a minimum, so one lucky round cannot set it.
func (d metricDef) pick(q1, med, q3 float64) float64 {
	switch {
	case d.simulated:
		return med
	case d.unit == "1/s":
		return q3
	}
	return q1
}

// endToEnd is what a user of the stack sees. BENCHMARK.json fixes each
// one's regression bound; the test keeps the two lists equal.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"throughput_ops_s", "1/s", false},
	{"read_p50_ns", "ns", false},
	{"read_p99_ns", "ns", false},
	{"update_p50_ns", "ns", false},
	{"update_p99_ns", "ns", false},
	{"pwbs_executed_per_op", "count", true},
	{"psyncs_per_op", "count", true},
	{"pool_words_per_op", "count", true},
	{"recovery_ms", "ms", false},
}

// perLayer attributes cost to single layers, layer.metric.
var perLayer = []metricDef{
	{"pmem.pwbs_recorded_per_op", "count", true},
	{"pmem.pwbs_merged_per_op", "count", true},
	{"pmem.pwbs_elided_per_op", "count", true},
	{"pmem.pwbs_unattributed_per_op", "count", true},
	{"pmem.spin_units_per_op", "count", true},
	{"pmem.load_ns", "ns", false},
	{"pmem.store_ns", "ns", false},
	{"pmem.cas_ns", "ns", false},
	{"pmem.pwb_private_ns", "ns", false},
	{"pmem.pwb_shared_ns", "ns", false},
	{"pmem.psync_ns", "ns", false},
	{"pmem.crash_capture_ms", "ms", false},
	{"pmem.pool_recover_ms", "ms", false},

	{"tracking.pwbs_per_op", "count", true},
	{"tracking.cp_rd_pwbs_per_op", "count", true},
	{"tracking.backtrack_pwbs_per_kop", "count", true},
	{"tracking.op_ns", "ns", false},

	{"rlist.find_ns", "ns", false},
	{"rlist.insert_ns", "ns", false},
	{"rlist.delete_ns", "ns", false},
	{"rlist.self_update_ns", "ns", false},

	{"rhash.find_ns", "ns", false},
	{"rhash.insert_ns", "ns", false},
	{"rhash.delete_ns", "ns", false},

	{"rmm.alloc_ns", "ns", false},
	{"rmm.free_ns", "ns", false},
	{"rmm.pwbs_per_op", "count", true},
	{"rmm.stack_steps_per_alloc", "count", false},
	{"rmm.cache_refills_per_kalloc", "count", false},
	{"rmm.live_blocks_per_live_key", "count", false},

	{"kvstore.get_ns", "ns", false},
	{"kvstore.put_fresh_ns", "ns", false},
	{"kvstore.put_overwrite_ns", "ns", false},
	{"kvstore.delete_ns", "ns", false},
	{"kvstore.self_get_ns", "ns", false},
	{"kvstore.self_put_ns", "ns", false},
	{"kvstore.self_delete_ns", "ns", false},
	{"kvstore.pwbs_per_op", "count", true},
	{"kvstore.op_p999_ns", "ns", false},
	{"kvstore.shard_imbalance", "count", false},
	{"kvstore.recover_pwbs", "count", true},
	{"kvstore.slots_reconciled_per_crash", "count", false},
	{"kvstore.leaks_reclaimed_per_crash", "count", false},
	{"kvstore.recover_op_us", "us", false},

	{"recovery.parallel_ms", "ms", false},
	{"recovery.attach_ms", "ms", false},
	{"recovery.gc_mark_ms", "ms", false},
	{"recovery.replay_ms", "ms", false},
	{"recovery.verify_ms", "ms", false},
	{"recovery.span_share", "count", false},

	{"bench.trace_overhead_pct", "%", false},
	{"bench.timer_ns", "ns", false},
	{"bench.round_spread_pct", "%", false},
}

// quartiles returns the median and the first and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (the driver's method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-quantile of samples by ceil rank; it sorts them.
func percentile(samples []int64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(math.Ceil(p*float64(len(samples)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(samples[i])
}

// executedPWBs is the count of write-backs the simulated device performed.
// A ModeFast pool counts them as it charges them; a ModeStrict pool
// charges nothing, and there every recorded write-back that was neither
// merged nor elided is captured, which is the identity pmem.Stats
// documents.
func executedPWBs(mode pmem.Mode, st pmem.Stats) float64 {
	if mode == pmem.ModeFast {
		return float64(st.PWBsExecuted)
	}
	return float64(st.PWBs - st.PWBsMerged - st.PWBsElided)
}

// endToEndOf is one round's value of every end-to-end metric.
func endToEndOf(w workload, r *roundResult) map[string]float64 {
	ops := float64(r.ops)
	return map[string]float64{
		"setup_s":              r.setupS,
		"throughput_ops_s":     ops / r.wallS,
		"read_p50_ns":          percentile(r.lat[latRead], 0.50),
		"read_p99_ns":          percentile(r.lat[latRead], 0.99),
		"update_p50_ns":        percentile(r.lat[latUpdate], 0.50),
		"update_p99_ns":        percentile(r.lat[latUpdate], 0.99),
		"pwbs_executed_per_op": executedPWBs(w.mode, r.stats) / ops,
		"psyncs_per_op":        float64(r.stats.PSyncs+r.stats.PFences) / ops,
		"pool_words_per_op":    float64(r.words) / ops,
		"recovery_ms":          median(r.recoverMs),
	}
}

// trackingSuffixes are the tracking engine's nine pwb code lines; they
// appear under the prefix of whichever structure owns the engine.
var trackingSuffixes = []string{
	"/pwb-CP", "/pwb-RD", "/pwb-desc+new", "/pwb-info-tag", "/pwb-info-backtrack",
	"/pwb-update-field", "/pwb-result", "/pwb-info-cleanup", "/pwb-info-observed",
}

// siteLayer attributes a pwb site to the layer whose code line it is.
func siteLayer(site string) string {
	switch {
	case strings.HasPrefix(site, "kvstore/"):
		return "kvstore"
	case strings.HasPrefix(site, "rmm/"):
		return "rmm"
	}
	for _, suf := range trackingSuffixes {
		if strings.HasSuffix(site, suf) {
			return "tracking"
		}
	}
	return "unattributed"
}

// tracedRun is everything a traced run measured: the workload itself with
// and without spans, and the ladder's rungs below it.
type tracedRun struct {
	untraced []roundResult
	traced   []roundResult
	ladder   ladderResult
	listRung roundResult  // rlist, paper geometry, one client
	kvRung   *roundResult // kvstore, one client; nil when the workload runs on the store itself
	crashRun *roundResult // ModeStrict twin with crashes; nil when the workload itself crashes
}

// over is the median over rounds of f.
func over(rounds []roundResult, f func(r *roundResult) float64) float64 {
	vs := make([]float64, len(rounds))
	for i := range rounds {
		vs[i] = f(&rounds[i])
	}
	return median(vs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerOf assembles every per-layer metric.
func (t *tracedRun) perLayerOf() map[string]float64 {
	l := &t.ladder
	timer := l.timerNs
	m := map[string]float64{}

	// Counters, in situ: the workload's own traced rounds.
	perOp := func(f func(st *pmem.Stats) float64) float64 {
		return over(t.traced, func(r *roundResult) float64 { return f(&r.stats) / float64(r.ops) })
	}
	bySite := func(pick func(site string) bool) float64 {
		return perOp(func(st *pmem.Stats) float64 {
			n := uint64(0)
			for site, c := range st.PWBsBySite {
				if pick(site) {
					n += c
				}
			}
			return float64(n)
		})
	}
	layer := func(name string) func(string) bool {
		return func(site string) bool { return siteLayer(site) == name }
	}
	m["pmem.pwbs_recorded_per_op"] = perOp(func(st *pmem.Stats) float64 { return float64(st.PWBs) })
	m["pmem.pwbs_merged_per_op"] = perOp(func(st *pmem.Stats) float64 { return float64(st.PWBsMerged) })
	m["pmem.pwbs_elided_per_op"] = perOp(func(st *pmem.Stats) float64 { return float64(st.PWBsElided) })
	m["pmem.spin_units_per_op"] = perOp(func(st *pmem.Stats) float64 { return float64(st.SpinUnits) })
	m["pmem.pwbs_unattributed_per_op"] = bySite(layer("unattributed"))
	m["tracking.pwbs_per_op"] = bySite(layer("tracking"))
	m["rmm.pwbs_per_op"] = bySite(layer("rmm"))
	m["kvstore.pwbs_per_op"] = bySite(layer("kvstore"))
	m["tracking.cp_rd_pwbs_per_op"] = bySite(func(s string) bool {
		return strings.HasSuffix(s, "/pwb-CP") || strings.HasSuffix(s, "/pwb-RD")
	})
	m["tracking.backtrack_pwbs_per_kop"] = 1000 * bySite(func(s string) bool {
		return strings.HasSuffix(s, "/pwb-info-backtrack")
	})

	// pmem primitives and the tracking floor, from the ladder.
	m["pmem.load_ns"] = l.loadNs
	m["pmem.store_ns"] = l.storeNs
	m["pmem.cas_ns"] = l.casNs
	m["pmem.pwb_private_ns"] = l.pwbPrivateNs
	m["pmem.pwb_shared_ns"] = l.pwbSharedNs
	m["pmem.psync_ns"] = l.psync
	m["tracking.op_ns"] = l.sum.mean(spTrackingOp, timer)

	// rlist at the paper's geometry.
	ls := &t.listRung.sum
	m["rlist.find_ns"] = ls.mean(spListFind, timer)
	m["rlist.insert_ns"] = ls.mean(spListInsert, timer)
	m["rlist.delete_ns"] = ls.mean(spListDelete, timer)
	updates := float64(ls.n[spListInsert] + ls.n[spListDelete])
	m["rlist.self_update_ns"] = ratio(float64(ls.sum[spListInsert]+ls.sum[spListDelete]), updates) -
		timer - m["tracking.op_ns"]

	m["rhash.find_ns"] = l.sum.mean(spHashFind, timer)
	m["rhash.insert_ns"] = l.sum.mean(spHashInsert, timer)
	m["rhash.delete_ns"] = l.sum.mean(spHashDelete, timer)
	m["rmm.alloc_ns"] = l.sum.mean(spRMMAlloc, timer)
	m["rmm.free_ns"] = l.sum.mean(spRMMFree, timer)
	m["rmm.stack_steps_per_alloc"] = l.stackStepsPerAlloc
	m["rmm.cache_refills_per_kalloc"] = l.cacheRefillsPerKilo

	// kvstore ops: in situ when the workload runs on the store, else the
	// one-client rung.
	kv := t.traced
	if t.kvRung != nil {
		kv = []roundResult{*t.kvRung}
	}
	spanMean := func(name uint8) float64 {
		return over(kv, func(r *roundResult) float64 { return r.sum.mean(name, timer) })
	}
	m["kvstore.get_ns"] = spanMean(spKVGet)
	m["kvstore.put_fresh_ns"] = spanMean(spKVPutFresh)
	m["kvstore.put_overwrite_ns"] = spanMean(spKVPutOverwrite)
	m["kvstore.delete_ns"] = spanMean(spKVDelete)
	m["kvstore.op_p999_ns"] = over(kv, func(r *roundResult) float64 { return r.p999 })
	m["kvstore.shard_imbalance"] = over(kv, func(r *roundResult) float64 { return r.shardImbalance })
	m["rmm.live_blocks_per_live_key"] = over(kv, func(r *roundResult) float64 { return r.liveBlocksPerKey })

	// Self time: a store op less its children as the ladder replayed them.
	// A Put inserts into the index and allocates; the overwrites among
	// them also free. A Delete deletes from the index and, when the key
	// was present, frees.
	overwriteShare := over(kv, func(r *roundResult) float64 {
		return ratio(float64(r.sum.n[spKVPutOverwrite]), float64(r.sum.n[spKVPutFresh]+r.sum.n[spKVPutOverwrite]))
	})
	put := overwriteShare*m["kvstore.put_overwrite_ns"] + (1-overwriteShare)*m["kvstore.put_fresh_ns"]
	m["kvstore.self_get_ns"] = m["kvstore.get_ns"] - m["rhash.find_ns"]
	m["kvstore.self_put_ns"] = put - m["rhash.insert_ns"] - m["rmm.alloc_ns"] - overwriteShare*m["rmm.free_ns"]
	m["kvstore.self_delete_ns"] = m["kvstore.delete_ns"] - m["rhash.delete_ns"] - l.freesPerDelete*m["rmm.free_ns"]

	// Crash and recovery: in situ when the workload crashes, else its
	// ModeStrict twin.
	cr := t.traced
	if t.crashRun != nil {
		cr = []roundResult{*t.crashRun}
	}
	perCrash := func(f func(c *crashStats) float64) float64 {
		return over(cr, func(r *roundResult) float64 { return ratio(f(&r.crash), float64(r.crash.crashes)) })
	}
	m["pmem.crash_capture_ms"] = over(cr, func(r *roundResult) float64 { return median(r.crash.captureMs) })
	m["pmem.pool_recover_ms"] = over(cr, func(r *roundResult) float64 { return median(r.crash.poolRecoverMs) })
	m["recovery.parallel_ms"] = over(cr, func(r *roundResult) float64 { return median(r.crash.parallelMs) })
	m["kvstore.recover_pwbs"] = perCrash(func(c *crashStats) float64 { return float64(c.recoverPWBs) })
	m["kvstore.slots_reconciled_per_crash"] = perCrash(func(c *crashStats) float64 { return float64(c.slotsReconcile) })
	m["kvstore.leaks_reclaimed_per_crash"] = perCrash(func(c *crashStats) float64 { return float64(c.leaksReclaimed) })
	m["kvstore.recover_op_us"] = over(cr, func(r *roundResult) float64 { return mean(r.crash.recoverOpNs) / 1e3 })

	m["recovery.attach_ms"] = l.attachMs
	m["recovery.gc_mark_ms"] = l.gcMarkMs
	m["recovery.replay_ms"] = l.replayMs
	m["recovery.verify_ms"] = l.verifyMs
	m["recovery.span_share"] = l.spanShare

	// The harness itself.
	thr := func(rs []roundResult) []float64 {
		vs := make([]float64, len(rs))
		for i := range rs {
			vs[i] = float64(rs[i].ops) / rs[i].wallS
		}
		return vs
	}
	q1, plain, q3 := quartiles(thr(t.untraced))
	m["bench.trace_overhead_pct"] = 100 * ratio(plain-median(thr(t.traced)), plain)
	m["bench.round_spread_pct"] = 100 * ratio(q3-q1, plain)
	m["bench.timer_ns"] = timer
	return m
}
