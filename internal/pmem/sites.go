package pmem

import (
	"sort"
	"sync/atomic"
)

// Site identifies one pwb code line of an algorithm, the unit of the
// paper's persistence-cost accounting (Section 5): sites are counted
// individually, can be disabled individually ("remove this code line"), and
// are classified by measured impact into Low/Medium/High categories.
type Site int

// NoSite is a placeholder for internal write-backs that belong to no
// algorithm code line (never counted, never disabled).
const NoSite Site = -1

type siteInfo struct {
	label    string
	disabled bool // under Pool.mu; threads consult their cached bitmask
}

// bumpSiteGen publishes a site-table change. Called with p.mu held.
// Threads notice the new generation on their next site check and re-copy
// the enabled bitmask under the lock; between the bump and the re-copy a
// thread may still act on the previous configuration, which is
// indistinguishable from the site switch racing the PWB.
func (p *Pool) bumpSiteGen() {
	p.genLocked++
	p.siteGen.Store(p.genLocked)
}

// RegisterSite registers a pwb code line under a human-readable label and
// returns its Site handle. Algorithms register their sites at construction
// time, before threads start issuing PWBs, but registering while threads
// run is also safe: registration touches only the pool's own tables (never
// another thread's context — each ThreadCtx grows its own counters on
// demand, see countPWB) and publishes the change via the generation
// counter. Registering the same label twice returns the same Site.
func (p *Pool) RegisterSite(label string) Site {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, s := range p.sites {
		if s.label == label {
			return Site(i)
		}
	}
	p.sites = append(p.sites, &siteInfo{label: label})
	if need := (len(p.sites) + 63) / 64; need > len(p.enabledBits) {
		p.enabledBits = append(p.enabledBits, 0)
	}
	i := uint(len(p.sites) - 1)
	p.enabledBits[i>>6] |= 1 << (i & 63)
	p.bumpSiteGen()
	return Site(i)
}

// SiteLabels returns the labels of all registered sites, indexed by Site.
func (p *Pool) SiteLabels() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.sites))
	for i, s := range p.sites {
		out[i] = s.label
	}
	return out
}

// SetSiteEnabled enables or disables the pwb code line s. A disabled site's
// PWBs are not executed and not counted, exactly as if the line were
// removed from the source.
func (p *Pool) SetSiteEnabled(s Site, on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(s) >= 0 && int(s) < len(p.sites) {
		p.sites[s].disabled = !on
		i := uint(s)
		if on {
			p.enabledBits[i>>6] |= 1 << (i & 63)
		} else {
			p.enabledBits[i>>6] &^= 1 << (i & 63)
		}
		p.bumpSiteGen()
	}
}

// SetAllSitesEnabled enables or disables every registered pwb code line
// (the "[no pwbs]" configurations of Figures 3f and 4f).
func (p *Pool) SetAllSitesEnabled(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, s := range p.sites {
		s.disabled = !on
		if on {
			p.enabledBits[uint(i)>>6] |= 1 << (uint(i) & 63)
		} else {
			p.enabledBits[uint(i)>>6] &^= 1 << (uint(i) & 63)
		}
	}
	p.bumpSiteGen()
}

// siteOn reports whether site s is enabled, consulting a thread-local copy
// of the pool's enabled bitmask. The common path is one load of the padded
// generation word (read-mostly: it changes only on site registration or
// reconfiguration) plus one indexed bit test — the seed walked a shared
// slice of per-site pointers and an atomic.Bool per PWB, dragging two
// shared cache lines through every flush of every thread.
func (ctx *ThreadCtx) siteOn(s Site) bool {
	if s < 0 {
		return true // NoSite; countPWB separately ignores it
	}
	p := ctx.pool
	if g := p.siteGen.Load(); g != ctx.siteGen {
		ctx.refreshSites()
	}
	i := uint(s)
	if w := i >> 6; w < uint(len(ctx.siteBits)) {
		return ctx.siteBits[w]>>(i&63)&1 != 0
	}
	// A site this pool has never registered (foreign handle): treat as
	// enabled, matching the seed's out-of-range behaviour.
	return true
}

// refreshSites re-copies the enabled bitmask (and the telemetry sink,
// which is published through the same generation) under the pool lock.
//
//go:noinline
func (ctx *ThreadCtx) refreshSites() {
	p := ctx.pool
	p.mu.Lock()
	ctx.siteBits = append(ctx.siteBits[:0], p.enabledBits...)
	ctx.sink = p.telemetry
	ctx.siteGen = p.genLocked
	p.mu.Unlock()
}

// Stats is a snapshot of persistence-instruction counters summed over all
// live thread contexts.
type Stats struct {
	PWBsBySite map[string]uint64
	PWBs       uint64
	PSyncs     uint64
	PFences    uint64
	SpinUnits  uint64 // ModeFast: total simulated persistence latency charged

	// PWBsDeferred, PWBsMerged, PSyncsMerged, BatchDrains and PWBsElided
	// are always zero: no write-back or sync is deferred, merged or
	// skipped, so PWBs is what executed. They stay because
	// benchmark/metrics.go still sums and reports them.
	PWBsDeferred uint64
	PWBsMerged   uint64
	PSyncsMerged uint64
	BatchDrains  uint64
	PWBsElided   uint64
	PWBsExecuted uint64 // ModeFast charges that actually spun (includes NoSite)
}

// Snapshot sums the counters of all thread contexts created since the pool
// was built (or since the last Recover, which detaches dead contexts).
// It is safe to call while threads run; counters read mid-run are exact
// for operations the issuing thread has completed.
func (p *Pool) Snapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{PWBsBySite: make(map[string]uint64, len(p.sites))}
	for _, s := range p.sites {
		st.PWBsBySite[s.label] = 0
	}
	for _, ctx := range p.ctxs {
		// The pwbPerSite header is swapped only under p.mu (see
		// countPWB), so this read is synchronized with owner growth.
		for i := range ctx.pwbPerSite {
			if i < len(p.sites) {
				c := ctx.pwbPerSite[i].Load()
				st.PWBsBySite[p.sites[i].label] += c
				st.PWBs += c
			}
		}
		st.PSyncs += ctx.psyncs.Load()
		st.PFences += ctx.pfences.Load()
		st.SpinUnits += ctx.spun.Load()
		st.PWBsExecuted += ctx.pwbsExecuted.Load()
	}
	return st
}

// Sub returns the counters accumulated since base was snapshotted: the
// per-site map contains exactly the sites with a positive delta (no stale
// zero entries, no keys base saw but st did not), and every difference is
// clamped at zero so a base that exceeds the snapshot (a pool reset, a
// detached context) can never underflow the unsigned counters.
func (st Stats) Sub(base Stats) Stats {
	sub := func(a, b uint64) uint64 {
		if a <= b {
			return 0
		}
		return a - b
	}
	d := Stats{
		PWBsBySite:   make(map[string]uint64, len(st.PWBsBySite)),
		PWBs:         sub(st.PWBs, base.PWBs),
		PSyncs:       sub(st.PSyncs, base.PSyncs),
		PFences:      sub(st.PFences, base.PFences),
		SpinUnits:    sub(st.SpinUnits, base.SpinUnits),
		PWBsExecuted: sub(st.PWBsExecuted, base.PWBsExecuted),
	}
	for k, v := range st.PWBsBySite {
		if dv := sub(v, base.PWBsBySite[k]); dv > 0 {
			d.PWBsBySite[k] = dv
		}
	}
	return d
}

// SortedSiteCounts returns (label, count) pairs in descending count order.
func (st Stats) SortedSiteCounts() []SiteCount {
	out := make([]SiteCount, 0, len(st.PWBsBySite))
	for l, c := range st.PWBsBySite {
		out = append(out, SiteCount{Label: l, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// SiteCount pairs a site label with its executed-PWB count.
type SiteCount struct {
	Label string
	Count uint64
}

// countPWB bumps the per-site counter: one atomic add on a line owned by
// the issuing thread. The total is derived in Snapshot (the seed paid a
// second shared-nothing-but-still-locked add for a running total).
//
// Counters for sites registered after this context was created are grown
// here, by the owner itself under p.mu; no other thread ever swaps the
// slice out from under the owner (the seed's RegisterSite did, racing
// unsynchronized reads in this function).
func (ctx *ThreadCtx) countPWB(s Site) {
	if s < 0 {
		// Infrastructure write-backs (pool/structure construction) are
		// not part of any algorithm's persistence accounting.
		return
	}
	if int(s) >= len(ctx.pwbPerSite) {
		ctx.growSiteCounters(int(s) + 1)
	}
	ctx.pwbPerSite[s].Add(1)
}

//go:noinline
func (ctx *ThreadCtx) growSiteCounters(n int) {
	p := ctx.pool
	p.mu.Lock()
	if len(p.sites) > n {
		n = len(p.sites)
	}
	grown := make([]atomic.Uint64, n)
	for i := range ctx.pwbPerSite {
		grown[i].Store(ctx.pwbPerSite[i].Load())
	}
	ctx.pwbPerSite = grown
	p.mu.Unlock()
}
