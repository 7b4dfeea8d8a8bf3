package pmem

import "time"

// This file is the pool's side of the observability layer: an optional
// TelemetrySink receives fine-grained persistence events (executed PWBs
// with their simulated stall, PSyncs with per-site stall attribution,
// crash/recovery lifecycle events). The sink is distributed to threads by
// the same generation-cached mechanism as the site-enabled bitmask, so the
// detached steady state costs the hot path exactly one owner-cached nil
// check per persistence instruction — the PR-1 de-contention work is
// preserved. internal/telemetry implements the sink; pmem itself never
// depends on it.

// TelemetrySink receives fine-grained persistence telemetry from a Pool it
// is attached to (SetTelemetrySink). Implementations must be safe for
// concurrent use: every simulated thread calls into the sink directly from
// its own goroutine. The pending slice passed to TelemetryPSync is reused
// by the caller and must not be retained.
type TelemetrySink interface {
	// TelemetryPWB reports one executed (enabled, counted) write-back of
	// site s by thread tid. stallUnits is the simulated latency charged in
	// ModeFast (0 in ModeStrict, where PWBs only schedule work).
	TelemetryPWB(tid int, s Site, stallUnits int64)
	// TelemetryPSync reports one executed PSync by thread tid, with its
	// stall cost — stallUnits of simulated latency in ModeFast,
	// stallNs of measured wall-clock commit time in ModeStrict — and the
	// per-site counts of write-backs pending at the sync, for attributing
	// the stall to the pwb code lines that caused it.
	TelemetryPSync(tid int, stallUnits, stallNs int64, pending []SiteStall)
	// TelemetryPFence reports one executed PFence by thread tid.
	TelemetryPFence(tid int)
	// TelemetryEvent reports a crash-lifecycle event or a thread's
	// spin-wait hint (EventPause). tid is -1 for pool-level events
	// (TriggerCrash, Crash, Recover, SetCrashAtSite); arg carries the
	// event-specific detail documented on the kind.
	TelemetryEvent(kind TelemetryEventKind, tid int, s Site, arg uint64)
}

// SiteStall is one site's share of the write-backs pending at a PSync: the
// attribution unit for psync stall time (the sync waits for exactly these
// write-backs to complete).
type SiteStall struct {
	Site Site
	PWBs uint64 // write-backs of this site issued since the thread's last PSync
}

// TelemetryEventKind identifies one kind of telemetry event. The persist
// kinds (EventPWB, EventPSync, EventPFence) are vocabulary for sinks that
// synthesize trace entries from the dedicated callbacks; the pool itself
// emits only the crash-lifecycle kinds and EventPause through
// TelemetryEvent.
type TelemetryEventKind uint8

// The telemetry event kinds.
const (
	// EventPWB is an executed write-back (synthesized by sinks from
	// TelemetryPWB; arg is the stall in simulated units).
	EventPWB TelemetryEventKind = iota
	// EventPSync is an executed PSync (synthesized from TelemetryPSync;
	// arg is the stall).
	EventPSync
	// EventPFence is an executed PFence (synthesized from TelemetryPFence).
	EventPFence
	// EventCrashTriggered marks the instant a crash fires: TriggerCrash,
	// an access-countdown expiry, or a site-targeted trigger (then tid and
	// s identify the firing thread and site).
	EventCrashTriggered
	// EventCrashResolved marks Crash(policy) completing: the durable view
	// is final for this failure.
	EventCrashResolved
	// EventRecovered marks Recover completing: the volatile view has been
	// rebuilt from the durable view.
	EventRecovered
	// EventSiteArmed marks SetCrashAtSite arming a site trigger; s is the
	// target site and arg the hit countdown k.
	EventSiteArmed
	// EventPause is a thread's spin-wait hint (ThreadCtx.Pause): it is
	// busy-waiting for another thread's write. It is a scheduling point for
	// harnesses that interleave simulated threads themselves, not a
	// persistence or crash event.
	EventPause
)

// String names the event kind for trace dumps.
func (k TelemetryEventKind) String() string {
	switch k {
	case EventPWB:
		return "pwb"
	case EventPSync:
		return "psync"
	case EventPFence:
		return "pfence"
	case EventCrashTriggered:
		return "crash-triggered"
	case EventCrashResolved:
		return "crash-resolved"
	case EventRecovered:
		return "recovered"
	case EventSiteArmed:
		return "site-armed"
	case EventPause:
		return "pause"
	default:
		return "unknown"
	}
}

// SetTelemetrySink attaches (or, with nil, detaches) the pool's telemetry
// sink. The change propagates to threads through the site-table generation:
// a thread observes it at its next persistence-site check, i.e. its next
// PWB. Attach the sink before creating the worker contexts whose activity
// it should observe; contexts created after the call see it immediately.
func (p *Pool) SetTelemetrySink(s TelemetrySink) {
	p.mu.Lock()
	p.telemetry = s
	p.bumpSiteGen()
	p.mu.Unlock()
}

// TelemetrySinkAttached reports whether a telemetry sink is attached.
func (p *Pool) TelemetrySinkAttached() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.telemetry != nil
}

// sinkSnapshot reads the attached sink for the pool-level (rare, lifecycle)
// emit paths, which have no ThreadCtx cache to consult.
func (p *Pool) sinkSnapshot() TelemetrySink {
	p.mu.Lock()
	s := p.telemetry
	p.mu.Unlock()
	return s
}

// emitPoolEvent forwards a pool-level lifecycle event to the sink, if any.
func (p *Pool) emitPoolEvent(kind TelemetryEventKind, s Site, arg uint64) {
	if sink := p.sinkSnapshot(); sink != nil {
		sink.TelemetryEvent(kind, -1, s, arg)
	}
}

// telePWB records one executed write-back with the sink and accumulates
// the per-site pending count the next PSync will attribute its stall to.
// Called only with ctx.sink attached; outlined to keep PWB's body within
// the inlining budget of its callers' loops.
//
//go:noinline
func (ctx *ThreadCtx) telePWB(s Site, stallUnits int) {
	if s < 0 {
		return // NoSite: infrastructure write-backs are unattributable
	}
	ctx.sink.TelemetryPWB(ctx.tid, s, int64(stallUnits))
	if int(s) >= len(ctx.telePend) {
		grown := make([]uint64, int(s)+8)
		copy(grown, ctx.telePend)
		ctx.telePend = grown
	}
	if ctx.telePend[s]++; ctx.telePend[s] == 1 {
		ctx.teleTouched = append(ctx.teleTouched, s)
	}
}

// telePSync reports one executed PSync with its stall and the pending
// per-site write-back counts, then resets the pending accumulation.
//
//go:noinline
func (ctx *ThreadCtx) telePSync(stallUnits, stallNs int64) {
	ctx.teleBuf = ctx.teleBuf[:0]
	for _, s := range ctx.teleTouched {
		ctx.teleBuf = append(ctx.teleBuf, SiteStall{Site: s, PWBs: ctx.telePend[s]})
		ctx.telePend[s] = 0
	}
	ctx.teleTouched = ctx.teleTouched[:0]
	ctx.sink.TelemetryPSync(ctx.tid, stallUnits, stallNs, ctx.teleBuf)
}

// commitPendingTimed is commitPending bracketed by a wall-clock measurement
// for strict-mode psync stall attribution.
func (ctx *ThreadCtx) commitPendingTimed() int64 {
	start := time.Now()
	ctx.commitPending()
	return time.Since(start).Nanoseconds()
}
