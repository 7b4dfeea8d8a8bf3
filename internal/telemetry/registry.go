package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/pmem"
)

// Config tunes a Registry. The zero value records counters and histograms
// with no event trace.
type Config struct {
	// RingSize is the event-trace capacity (rounded up to a power of two).
	// 0 disables the trace ring entirely.
	RingSize int
	// TracePersist also records every PWB/PSync/PFence into the trace ring
	// (in addition to the always-traced crash-lifecycle events). Very
	// verbose; meant for the crash sweep's short deterministic histories,
	// not for throughput benchmarks.
	TracePersist bool
}

// Registry accumulates persistence telemetry from one or more pools plus
// operation latencies from the bench harness. It implements
// pmem.TelemetrySink. All recording paths are lock-free per-thread shards;
// Snapshot merges them without stopping recorders.
type Registry struct {
	cfg  Config
	ring *ring // nil when RingSize is 0

	mu     sync.Mutex // shard-table growth, label updates, retired table
	shards atomic.Pointer[[]*shard]
	labels atomic.Pointer[[]string] // site labels of the attached pool

	// retired holds per-site accumulations from previously attached pools,
	// keyed by label: pools have their own site index spaces, so counters
	// must be re-keyed before a pool with a different site table attaches.
	retired map[string]siteAcc

	// pool events (tid -1) have no shard; their count lives here.
	poolEvents atomic.Uint64

	// gauges holds last-write-wins named values published by subsystems
	// (e.g. the rmm-* allocator utilization family), guarded by mu.
	gauges map[string]uint64
}

// SetGauge publishes a named last-write-wins gauge value into snapshots.
// Gauges carry subsystem state that is not a persistence-instruction
// counter — allocator utilization, leak totals, chunk counts — under a
// subsystem-prefixed name ("rmm-chunks-active"). Concurrency-safe; the
// latest value wins.
func (r *Registry) SetGauge(name string, v uint64) {
	r.mu.Lock()
	if r.gauges == nil {
		r.gauges = make(map[string]uint64)
	}
	r.gauges[name] = v
	r.mu.Unlock()
}

// siteAcc is one site's merged counters while being re-keyed by label.
type siteAcc struct {
	pwbs, pwbStallUnits, psyncStallUnits, psyncStallNs uint64
}

func (a *siteAcc) add(b siteAcc) {
	a.pwbs += b.pwbs
	a.pwbStallUnits += b.pwbStallUnits
	a.psyncStallUnits += b.psyncStallUnits
	a.psyncStallNs += b.psyncStallNs
}

func (a siteAcc) zero() bool {
	return a.pwbs == 0 && a.pwbStallUnits == 0 && a.psyncStallUnits == 0 && a.psyncStallNs == 0
}

// shard holds one simulated thread's counters. The owning thread is the
// only writer; the padding keeps neighbouring shards off each other's
// cache lines.
type shard struct {
	_       [64]byte
	sites   atomic.Pointer[siteCounters]
	psyncs  atomic.Uint64
	pfences atomic.Uint64

	psyncStallUnits atomic.Uint64
	psyncStallNs    atomic.Uint64

	ops [numOps]histShard
	_   [64]byte
}

// siteCounters is one shard's per-site accumulation, grown copy-on-write
// by the owning thread (readers load the pointer and see either the old or
// the new table).
type siteCounters struct {
	pwbs            []atomic.Uint64
	pwbStallUnits   []atomic.Uint64
	psyncStallUnits []atomic.Uint64
	psyncStallNs    []atomic.Uint64
}

// NewRegistry returns an empty registry with the given configuration.
func NewRegistry(cfg Config) *Registry {
	r := &Registry{cfg: cfg}
	if cfg.RingSize > 0 {
		r.ring = newRing(cfg.RingSize)
	}
	return r
}

// AttachPool attaches the registry to a pool as its telemetry sink and
// captures the pool's site labels for snapshot resolution. A registry may
// observe several pools over its lifetime (a figure sweep runs one pool
// per data point): attaching retires the live per-site counters into a
// label-keyed table first, because the new pool's site indices need not
// mean what the old pool's did. Threads of a previously attached pool
// must have quiesced before the next AttachPool; one pool's own threads
// may of course still be running when its registry is merely snapshotted.
func (r *Registry) AttachPool(p *pmem.Pool) {
	labels := p.SiteLabels()
	r.mu.Lock()
	r.retireLocked()
	r.labels.Store(&labels)
	r.mu.Unlock()
	p.SetTelemetrySink(r)
}

// retireLocked folds every shard's live per-site counters into the
// label-keyed retired table and clears the live tables. Caller holds r.mu
// and guarantees no thread is concurrently recording into the old pool.
func (r *Registry) retireLocked() {
	tbl := r.shards.Load()
	if tbl == nil {
		return
	}
	for _, sh := range *tbl {
		if sh == nil {
			continue
		}
		sc := sh.sites.Load()
		if sc == nil {
			continue
		}
		for i := range sc.pwbs {
			a := siteAcc{
				pwbs:            sc.pwbs[i].Load(),
				pwbStallUnits:   sc.pwbStallUnits[i].Load(),
				psyncStallUnits: sc.psyncStallUnits[i].Load(),
				psyncStallNs:    sc.psyncStallNs[i].Load(),
			}
			if a.zero() {
				continue
			}
			if r.retired == nil {
				r.retired = make(map[string]siteAcc)
			}
			label := r.siteLabel(i)
			t := r.retired[label]
			t.add(a)
			r.retired[label] = t
		}
		sh.sites.Store(nil)
	}
}

// shardFor returns thread tid's shard, growing the table on first sight of
// a tid. tid must be >= 0.
func (r *Registry) shardFor(tid int) *shard {
	if t := r.shards.Load(); t != nil && tid < len(*t) {
		return (*t)[tid]
	}
	return r.growShards(tid)
}

//go:noinline
func (r *Registry) growShards(tid int) *shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur []*shard
	if t := r.shards.Load(); t != nil {
		cur = *t
	}
	if tid < len(cur) {
		return cur[tid]
	}
	grown := make([]*shard, tid+1)
	copy(grown, cur)
	for i := len(cur); i < len(grown); i++ {
		grown[i] = new(shard)
	}
	r.shards.Store(&grown)
	return grown[tid]
}

// site returns the shard's per-site counter table with capacity for site
// s, growing copy-on-write. Only the shard's owning thread calls this, so
// the copy cannot lose concurrent increments.
func (sh *shard) site(s int) *siteCounters {
	sc := sh.sites.Load()
	if sc != nil && s < len(sc.pwbs) {
		return sc
	}
	n := s + 8
	grown := &siteCounters{
		pwbs:            make([]atomic.Uint64, n),
		pwbStallUnits:   make([]atomic.Uint64, n),
		psyncStallUnits: make([]atomic.Uint64, n),
		psyncStallNs:    make([]atomic.Uint64, n),
	}
	if sc != nil {
		for i := range sc.pwbs {
			grown.pwbs[i].Store(sc.pwbs[i].Load())
			grown.pwbStallUnits[i].Store(sc.pwbStallUnits[i].Load())
			grown.psyncStallUnits[i].Store(sc.psyncStallUnits[i].Load())
			grown.psyncStallNs[i].Store(sc.psyncStallNs[i].Load())
		}
	}
	sh.sites.Store(grown)
	return grown
}

// TelemetryPWB implements pmem.TelemetrySink.
func (r *Registry) TelemetryPWB(tid int, s pmem.Site, stallUnits int64) {
	if tid < 0 || s < 0 {
		return
	}
	sc := r.shardFor(tid).site(int(s))
	sc.pwbs[s].Add(1)
	if stallUnits > 0 {
		sc.pwbStallUnits[s].Add(uint64(stallUnits))
	}
	if r.ring != nil && r.cfg.TracePersist {
		r.ring.append(pmem.EventPWB, tid, s, uint64(stallUnits))
	}
}

// TelemetryPSync implements pmem.TelemetrySink: the sync's stall cost is
// attributed to the sites whose write-backs it completed, proportionally
// to their pending counts (integer division; the remainder goes to the
// site with the most pending write-backs so totals are preserved).
func (r *Registry) TelemetryPSync(tid int, stallUnits, stallNs int64, pending []pmem.SiteStall) {
	if tid < 0 {
		return
	}
	sh := r.shardFor(tid)
	sh.psyncs.Add(1)
	if stallUnits > 0 {
		sh.psyncStallUnits.Add(uint64(stallUnits))
	}
	if stallNs > 0 {
		sh.psyncStallNs.Add(uint64(stallNs))
	}
	var total uint64
	maxIdx := -1
	for i, ps := range pending {
		if ps.Site < 0 {
			continue
		}
		total += ps.PWBs
		if maxIdx < 0 || ps.PWBs > pending[maxIdx].PWBs {
			maxIdx = i
		}
	}
	if total > 0 && (stallUnits > 0 || stallNs > 0) {
		units, ns := uint64(stallUnits), uint64(stallNs)
		var spentUnits, spentNs uint64
		for i, ps := range pending {
			if ps.Site < 0 || i == maxIdx {
				continue
			}
			sc := sh.site(int(ps.Site))
			su, sn := units*ps.PWBs/total, ns*ps.PWBs/total
			sc.psyncStallUnits[ps.Site].Add(su)
			sc.psyncStallNs[ps.Site].Add(sn)
			spentUnits += su
			spentNs += sn
		}
		// The site that contributed the most write-backs absorbs the
		// integer-division remainder, so attributed stall sums exactly to
		// the sync's stall.
		sc := sh.site(int(pending[maxIdx].Site))
		sc.psyncStallUnits[pending[maxIdx].Site].Add(units - spentUnits)
		sc.psyncStallNs[pending[maxIdx].Site].Add(ns - spentNs)
	}
	if r.ring != nil && r.cfg.TracePersist {
		arg := uint64(stallUnits)
		if stallNs > 0 {
			arg = uint64(stallNs)
		}
		r.ring.append(pmem.EventPSync, tid, pmem.NoSite, arg)
	}
}

// TelemetryPFence implements pmem.TelemetrySink.
func (r *Registry) TelemetryPFence(tid int) {
	if tid < 0 {
		return
	}
	r.shardFor(tid).pfences.Add(1)
	if r.ring != nil && r.cfg.TracePersist {
		r.ring.append(pmem.EventPFence, tid, pmem.NoSite, 0)
	}
}

// TelemetryEvent implements pmem.TelemetrySink: crash-lifecycle events are
// always traced when a ring is configured. Spin-wait hints (EventPause) are
// scheduling points, not events of the run, and are dropped.
func (r *Registry) TelemetryEvent(kind pmem.TelemetryEventKind, tid int, s pmem.Site, arg uint64) {
	if kind == pmem.EventPause {
		return
	}
	r.poolEvents.Add(1)
	if r.ring != nil {
		r.ring.append(kind, tid, s, arg)
	}
}

// RecordOp records one completed operation of class op by thread tid with
// latency d nanoseconds.
func (r *Registry) RecordOp(tid int, op Op, ns int64) {
	if tid < 0 || op < 0 || op >= numOps {
		return
	}
	r.shardFor(tid).ops[op].record(ns)
}

// siteLabel resolves a site index to its label, falling back to a numeric
// placeholder for sites registered after AttachPool.
func (r *Registry) siteLabel(s int) string {
	if lp := r.labels.Load(); lp != nil && s >= 0 && s < len(*lp) {
		return (*lp)[s]
	}
	return fmt.Sprintf("site#%d", s)
}
