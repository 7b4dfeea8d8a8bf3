package pmem

// Flush avoidance: link-and-persist dirty-bit tagging plus a per-thread
// flushed-line memo, the two mechanisms (David et al., "Log-Free
// Concurrent Data Structures"; Friedman et al., NVTraverse) that remove
// redundant write-backs of already-durable lines.
//
//   - Link-and-persist words. StoreDirty/CASDirty write a word with bit 1
//     (DirtyBit) set, marking it "not yet durable"; the first observer —
//     a PWBFirst at the writer's own persist point, or a LoadAndPersist
//     by any reader or helper — clears the bit with a relaxed CAS and
//     pays the write-back, and every later observer finds the word clean
//     and elides the flush entirely. The bit rides in the stored word, so
//     the discipline is only legal for words whose value space spares
//     bit 1: 8-aligned references such as the tracking engine's info
//     words and the kvstore's slot words. Arbitrary data words must keep
//     using Store/CAS/PWB.
//
//   - Flushed-line memo. A small direct-mapped, owner-only cache of
//     recently flushed line indices on ThreadCtx. A plain PWB of a line
//     the memo records as flushed within the current failure-free window
//     is elided even for untagged words. The memo is invalidated
//     wholesale at every fast-mode PSync and write-combining drain (the
//     epoch boundaries) and on crash capture — and at nothing finer:
//     within one window, repeated write-backs of one line coalesce into
//     the single pending write-back the closing PSync drains, exactly the
//     one-pending-write-back-per-line rule strict-mode batching already
//     models (see captureLine). The window's durable content at the
//     PSync — the line's latest value — is the same either way; only
//     which *intermediate* values could be durable at a crash strictly
//     inside the window differs, and ModeFast never adjudicates crash
//     states (Crash and DurableLoad require ModeStrict), so the coarser
//     window is a pure cost-model choice, documented in DESIGN.md.
//
// Mode discipline — the load-bearing invariant of this file:
//
//   - In ModeStrict the dirty bit is NEVER set. StoreDirty degrades to
//     Store, CASDirty to CASV, PWBFirst to PWB, LoadAndPersist to Load.
//     Strict durable states, crash-sweep verdicts and per-site strict
//     profiles are therefore byte-identical with flush avoidance on or
//     off, by construction.
//   - In ModeFast the feature is a pool-level opt-in (SetFlushAvoid).
//     Elision changes only the executed charges, never the record point:
//     an elided PWBFirst still counts against its site, still reports to
//     telemetry and still drives SetCrashAtSite's countdown, so the
//     site×k-th-hit task matrix of the sweep is unchanged.
//   - A write-back merged by the write-combining batch buffer is never
//     also elided: with an open batch, PWBFirst clears the dirty tag and
//     defers into the buffer (the merge path owns the dedup accounting),
//     so each recorded write-back lands in exactly one of
//     PWBsMerged/PWBsElided — the executed+merged+elided == recorded
//     invariant Stats documents.

// DirtyBit is the link-and-persist tag: bit 1 of a dirty-discipline word,
// set by StoreDirty/CASDirty in ModeFast with flush avoidance on, cleared
// by the word's first observer. Addresses are 8-aligned, and the tracking
// engine already steals bit 0 for descriptor tagging, so bit 1 is the
// remaining free low bit of every reference word.
const DirtyBit uint64 = 1 << 1

// memoSlots is the size of the per-thread flushed-line memo. Direct-mapped
// by the line index's low bits; 64 entries is one cache line of uint32s,
// like the small flush caches of the modeled designs.
const memoSlots = 64

// SetFlushAvoid turns pool-wide flush avoidance on or off. The change
// propagates to running threads through the site-table generation, like
// SetBatchPolicy. It has no effect in ModeStrict (see the file comment):
// strict pools accept the setting so harnesses can configure both modes
// identically, but the dirty bit is never set and no charge is elided.
func (p *Pool) SetFlushAvoid(on bool) {
	p.mu.Lock()
	p.flushAvoid = on
	p.bumpSiteGen()
	p.mu.Unlock()
}

// FlushAvoid reports whether pool-wide flush avoidance is enabled.
func (p *Pool) FlushAvoid() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushAvoid
}

// StoreDirty is Store for a dirty-discipline word: in ModeFast with flush
// avoidance on, the word is written with DirtyBit set, deferring its
// write-back to the first observer (PWBFirst or LoadAndPersist).
// Everywhere else it is exactly Store. v must have bit 1 clear.
func (ctx *ThreadCtx) StoreDirty(a Addr, v uint64) {
	p := ctx.pool
	wi := int(a >> 3)
	if uint64(p.ctlFast())|(uint64(a)&(WordSize-1)) != 0 ||
		uint(wi-1) >= uint(len(p.words)-1) {
		wi = p.slowpathCheck(a)
	}
	if ctx.faOn {
		p.storeWord(wi, v|DirtyBit)
		return
	}
	if p.mode == ModeStrict {
		ver := p.beginWrite(wi)
		p.storeWord(wi, v)
		ctx.endWrite(wi, ver, true)
		return
	}
	p.storeWord(wi, v)
}

// CASDirty is CASV for a dirty-discipline word. The compare is against the
// word's logical (untagged) value, so a still-dirty word compares equal to
// its clean form; on success the new value is installed with DirtyBit set
// (ModeFast with flush avoidance on), marking it for its first observer.
// The returned prev is always the logical value, with the dirty tag
// stripped. old and new must have bit 1 clear. With flush avoidance off
// (or in ModeStrict) it is exactly CASV.
func (ctx *ThreadCtx) CASDirty(a Addr, old, new uint64) (prev uint64, ok bool) {
	p := ctx.pool
	p.checkCrash()
	wi := p.wordIndex(a)
	if !ctx.faOn {
		for {
			cur := p.loadWord(wi)
			if cur != old {
				return cur, false
			}
			if p.strictCAS(ctx, wi, old, new) {
				return old, true
			}
		}
	}
	for {
		cur := p.loadWord(wi)
		if cur&^DirtyBit != old {
			return cur &^ DirtyBit, false
		}
		if p.casWord(wi, cur, new|DirtyBit) {
			return old, true
		}
	}
}

// PWBFirst is PWB for a word written through StoreDirty/CASDirty. The
// record point is identical to PWB's — the site count, the telemetry
// report and the crash-site countdown all happen unconditionally — but in
// ModeFast with flush avoidance on, the charge executes only for the
// word's first observer: a caller that finds the word still dirty-tagged
// clears the tag and pays the write-back; every later caller finds it
// clean (already persisted) and elides the charge. Inside a
// write-combining batch the dirty tag is cleared and the line deferred
// into the batch buffer instead, so merge and elision accounting never
// overlap. In ModeStrict it is exactly PWB.
func (ctx *ThreadCtx) PWBFirst(s Site, a Addr) {
	p := ctx.pool
	wi := int(a >> 3)
	if uint64(p.ctlFast())|(uint64(a)&(WordSize-1)) != 0 ||
		uint(wi-1) >= uint(len(p.words)-1) {
		wi = p.slowpathCheck(a)
	}
	if !ctx.siteOn(s) {
		return
	}
	ctx.countPWB(s)
	line := wi / LineWords
	stall := 0
	if p.mode == ModeStrict {
		ctx.captureLine(line)
		if ctx.batchDepth > 0 || (ctx.autoBatch.Active() && ctx.autoBatchOpen()) {
			ctx.recordWCLine(line)
		}
	} else if ctx.batchDepth > 0 || (ctx.autoBatch.Active() && ctx.autoBatchOpen()) {
		// Merge path: the batch buffer owns the dedup accounting. Clear
		// the dirty tag so no later observer can also elide this
		// write-back (exactly one of merged/elided per recorded PWB).
		ctx.clearDirty(wi)
		ctx.deferPWB(line)
	} else if ctx.faOn {
		stall = ctx.firstCharge(wi, line)
	} else {
		stall = ctx.chargePWB(line)
	}
	if ctx.sink != nil {
		ctx.telePWB(s, stall)
	}
	if p.ctlFast()&ctlSiteArm != 0 {
		ctx.siteHit(s)
	}
}

// clearDirty strips DirtyBit from the word, preserving a concurrent
// writer's value (relaxed CAS loop; a clean word is left untouched).
func (ctx *ThreadCtx) clearDirty(wi int) {
	p := ctx.pool
	for {
		cur := p.loadWord(wi)
		if cur&DirtyBit == 0 || p.casWord(wi, cur, cur&^DirtyBit) {
			return
		}
	}
}

// firstCharge resolves a fast-mode PWBFirst under flush avoidance: a word
// still dirty-tagged is persisted here — the caller is its first
// observer, so the tag is cleared and the line charged (and memoized) —
// while a clean word was already persisted by its first observer and the
// charge is elided. Two racing observers are arbitrated by the tag-clear
// CAS: the winner charges, the loser re-reads, finds the word clean and
// elides.
//
//go:noinline
func (ctx *ThreadCtx) firstCharge(wi, line int) int {
	p := ctx.pool
	for {
		cur := p.loadWord(wi)
		if cur&DirtyBit == 0 {
			ctx.pwbsElided.Add(1)
			return 0
		}
		if p.casWord(wi, cur, cur&^DirtyBit) {
			// Won the tag: this caller resolves the write-back. memoCharge
			// still applies the window rule — a line already flushed in
			// this failure-free window coalesces instead of re-charging.
			return ctx.memoCharge(line)
		}
	}
}

// lapSlow is LoadAndPersist's outlined cold continuation, reached for a
// bad address, a pending or armed crash, or a dirty-tagged word. The fast
// path above (one call site, both word-model variants) revalidates
// nothing, so this re-performs the full checked access.
//
//go:noinline
func (ctx *ThreadCtx) lapSlow(s Site, a Addr) uint64 {
	p := ctx.pool
	wi := uint64(a)>>3 | uint64(a)<<61
	if wi-1 >= uint64(p.wordLimit) {
		panic(badAddrError(a))
	}
	p.checkCrash()
	v := p.loadWord(int(wi))
	if v&DirtyBit != 0 {
		return ctx.lapDirty(s, int(wi), v)
	}
	return v
}

// lapDirty is LoadAndPersist's outlined dirty path: clear the tag, charge
// and record the first-observer write-back at site s, and return the
// logical value. Losing the tag-clear race to another observer degrades to
// the elide-free plain read (the winner recorded the flush). A disabled
// site clears the tag without recording or charging — the code line is
// "removed", and leaving the tag would put every later reader of the word
// on this slow path.
//
//go:noinline
func (ctx *ThreadCtx) lapDirty(s Site, wi int, v uint64) uint64 {
	p := ctx.pool
	for {
		if v&DirtyBit == 0 {
			return v
		}
		if p.casWord(wi, v, v&^DirtyBit) {
			v &^= DirtyBit
			break
		}
		v = p.loadWord(wi)
	}
	if !ctx.siteOn(s) {
		return v
	}
	ctx.countPWB(s)
	line := wi / LineWords
	stall := 0
	switch {
	case p.mode == ModeStrict:
		// Unreachable in practice — the dirty tag is never set in
		// ModeStrict — but kept total for defense in depth.
		ctx.captureLine(line)
	case ctx.batchDepth > 0 || (ctx.autoBatch.Active() && ctx.autoBatchOpen()):
		ctx.deferPWB(line)
	default:
		stall = ctx.memoCharge(line)
	}
	if ctx.sink != nil {
		ctx.telePWB(s, stall)
	}
	if p.ctlFast()&ctlSiteArm != 0 {
		ctx.siteHit(s)
	}
	return v
}

// memoCharge charges a fast-mode write-back unless the per-thread memo
// records the line as already flushed within the current failure-free
// window, in which case the charge is elided. Outlined to keep PWB's body
// within the inlining budget of its callers.
//
//go:noinline
func (ctx *ThreadCtx) memoCharge(line int) int {
	i := uint32(line) & (memoSlots - 1)
	if ctx.memo[i] == uint32(line)+1 {
		ctx.pwbsElided.Add(1)
		return 0
	}
	ctx.memo[i] = uint32(line) + 1
	return ctx.chargePWB(line)
}

// memoInsert records line as flushed in the direct-mapped memo (entry
// encoding: line index + 1, zero meaning empty).
func (ctx *ThreadCtx) memoInsert(line int) {
	ctx.memo[uint32(line)&(memoSlots-1)] = uint32(line) + 1
}

// memoClear invalidates the whole memo: called at every fast-mode PSync
// and write-combining drain (the failure-free window closes) and on crash
// capture.
//
//go:noinline
func (ctx *ThreadCtx) memoClear() {
	ctx.memo = [memoSlots]uint32{}
}
