package pmem

import (
	"math/rand"
	"sync/atomic"
)

// CrashPolicy controls the adversarial choices a crash makes about which
// scheduled-but-unsynced write-backs completed before the failure, and
// which dirty lines were written back by cache eviction.
type CrashPolicy struct {
	// Rng drives the adversary. Nil means a deterministic worst case:
	// no un-synced write-back completed and nothing was evicted.
	Rng *rand.Rand
	// CommitProb is the probability that each write-back in the cut
	// epoch completed.
	CommitProb float64
	// EvictProb is the probability that each dirty line was written back
	// by eviction (with its content at crash time).
	EvictProb float64
	// CommitAll selects the opposite deterministic extreme from a nil Rng:
	// every scheduled write-back of every thread completed and every dirty
	// line was evicted with its content at crash time, so the durable view
	// equals the volatile view at the instant of the crash. Recovery code
	// that wrongly assumes some write was NOT yet durable fails under this
	// adversary. When set, Rng and the probabilities are ignored.
	CommitAll bool
}

// Crash resolves a triggered crash: volatile state is discarded and the
// durable view is finalized under the policy's adversarial choices. Every
// thread must be parked (it has panicked with ErrCrashed or is otherwise
// guaranteed not to touch the pool). Only meaningful in ModeStrict.
//
// The persistency model constrains the adversary: a thread's un-synced
// write-backs complete in an order consistent with its fences, so the set
// of completed write-backs is, per thread, all epochs before some cut
// point, plus an arbitrary subset of the epoch at the cut.
func (p *Pool) Crash(pol CrashPolicy) {
	if p.mode != ModeStrict {
		panic("pmem: Crash requires ModeStrict")
	}
	if atomic.LoadUint32(&p.crashCtl)&ctlCrashed == 0 {
		panic("pmem: Crash without TriggerCrash")
	}
	p.mu.Lock()
	ctxs := append([]*ThreadCtx(nil), p.ctxs...)
	p.mu.Unlock()

	if pol.CommitAll {
		for _, ctx := range ctxs {
			ctx.commitPending()
		}
		p.evictAll()
		p.emitPoolEvent(EventCrashResolved, NoSite, 1)
		return
	}
	// Evictions happen first: under TSO with ordered flushes, a store can
	// only reach the cache (and thus be evicted to NVMM) after the write-
	// backs its thread fenced before it have completed, so evicting a line
	// forces completion of its last writer's scheduled write-backs.
	if pol.Rng != nil && pol.EvictProb > 0 {
		p.evictDirty(ctxs, pol)
	}
	for _, ctx := range ctxs {
		p.crashThread(ctx, pol)
	}
	p.emitPoolEvent(EventCrashResolved, NoSite, 0)
}

// crashThread commits an adversarially chosen, fence-consistent prefix of
// one thread's pending write-backs and discards the rest.
func (p *Pool) crashThread(ctx *ThreadCtx, pol CrashPolicy) {
	pending := ctx.pending
	ctx.pending = nil
	ctx.epochStart = 0
	// The crash consumes any open write-combining epoch with the thread:
	// in strict mode the buffer was bookkeeping only (every recorded line
	// is in pending, adjudicated below), so nothing durable is lost.
	ctx.wcLines = nil
	ctx.wcOps = 0
	ctx.batchDepth = 0
	ctx.autoOpened = false
	// The flushed-line memo describes a failure-free window; a crash ends
	// it by definition (strict pools never populate it, but the reset keeps
	// crashThread total).
	ctx.memoClear()
	if len(pending) == 0 {
		return
	}
	if pol.Rng == nil {
		return // worst case: nothing completed
	}
	// Split into epochs at fence markers.
	var epochs [][]wbEntry
	start := 0
	for i := range pending {
		if pending[i].fence {
			epochs = append(epochs, pending[start:i])
			start = i + 1
		}
	}
	epochs = append(epochs, pending[start:])
	cut := pol.Rng.Intn(len(epochs) + 1)
	for e := 0; e < cut && e < len(epochs); e++ {
		for i := range epochs[e] {
			p.commitLine(&epochs[e][i])
		}
	}
	if cut < len(epochs) {
		for i := range epochs[cut] {
			if pol.Rng.Float64() < pol.CommitProb {
				p.commitLine(&epochs[cut][i])
			}
		}
	}
}

// evictAll writes back every dirty line with its content at crash time
// (the CommitAll adversary: nothing in flight was lost).
func (p *Pool) evictAll() {
	limit := (p.AllocatedWords() + LineWords - 1) / LineWords
	for line := 0; line < limit && line < len(p.dirty); line++ {
		if atomic.LoadUint32(&p.dirty[line]) == 0 {
			continue
		}
		e := wbEntry{line: line}
		p.snapLine(&e)
		p.commitLine(&e)
	}
}

// evictDirty models cache eviction: each dirty line may have been written
// back with its content at crash time. Evicting a line first completes the
// scheduled write-backs of the line's last writer, because that thread's
// evicted store could only have reached the cache after its earlier fenced
// flushes completed (sfence ordering on the modelled hardware).
func (p *Pool) evictDirty(ctxs []*ThreadCtx, pol CrashPolicy) {
	limit := (p.AllocatedWords() + LineWords - 1) / LineWords
	for line := 0; line < limit && line < len(p.dirty); line++ {
		if atomic.LoadUint32(&p.dirty[line]) == 0 {
			continue
		}
		if pol.Rng.Float64() >= pol.EvictProb {
			continue
		}
		if w := atomic.LoadInt32(&p.writer[line]); w != 0 {
			for _, ctx := range ctxs {
				if ctx.tid == int(w-1) {
					ctx.commitPending()
				}
			}
		}
		e := wbEntry{line: line}
		p.snapLine(&e)
		p.commitLine(&e)
	}
}

// Recover reinitializes the volatile view from the durable view after a
// Crash and re-arms the pool for the recovered execution. Thread contexts
// created before the crash are dead; recovery code must create fresh ones
// (the system resurrects threads, Section 2).
//
// Only lines written since the previous Recover are restored; the rest
// already hold their durable content. Every strict-mode value change ends
// in markDirty (Store, a successful CAS, StoreDurable), and the durable
// view changes only through commitLine/commitWord, which apply values a
// snapshot read from the volatile view. So a line with a clear dirty flag
// has volatile words equal to its durable words. A failed CAS does bump
// the word's version without marking the line; such a word keeps an even
// version above its durable one and an unchanged value, which snapLine and
// commitLine already handle. Real NVMM copies nothing at a restart; the
// simulator pays one scan of the allocated lines' flags plus the restore
// of the dirty lines.
func (p *Pool) Recover() {
	if p.mode != ModeStrict {
		panic("pmem: Recover requires ModeStrict")
	}
	lines := (p.AllocatedWords() + LineWords - 1) / LineWords
	for line := 0; line < lines; line++ {
		if atomic.LoadUint32(&p.dirty[line]) == 0 {
			continue
		}
		for wi := line * LineWords; wi < (line+1)*LineWords; wi++ {
			p.storeWord(wi, atomic.LoadUint64(&p.durable[wi]))
			atomic.StoreUint64(&p.wver[wi], atomic.LoadUint64(&p.dver[wi]))
		}
		atomic.StoreUint32(&p.dirty[line], 0)
	}
	p.rearm()
}

// rearm finishes Recover once the volatile view is restored: it drops the
// pre-crash thread contexts and clears the consumed crash triggers.
func (p *Pool) rearm() {
	p.mu.Lock()
	// Pre-crash contexts are dead. Keep their counters out of future
	// snapshots by detaching them; their pendings were consumed by Crash.
	p.ctxs = nil
	p.mu.Unlock()
	p.clearCrashCtl(ctlCrashed)
	// A fired countdown stays consumed; a still-positive countdown
	// (TriggerCrash raced an armed SetCrashAfter) keeps counting.
	if p.crashAfter.Load() <= 0 {
		p.clearCrashCtl(ctlCounting)
		p.crashAfter.Store(0)
	}
	// Same for a site-targeted trigger: a fired (or externally resolved)
	// arm is consumed; a still-positive one keeps waiting for its hit.
	if p.siteArmHits.Load() <= 0 {
		p.clearCrashCtl(ctlSiteArm)
		p.siteArm.Store(0)
	}
	p.emitPoolEvent(EventRecovered, NoSite, 0)
}
