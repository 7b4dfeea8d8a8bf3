package pmem

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// wbEntry is one scheduled (not yet completed) write-back in ModeStrict.
// It captures the content of a cache line at PWB time; per the persistency
// model, the write-back completes somewhere between the PWB and the next
// PSync, and the captured versions let the commit respect per-location
// program order.
type wbEntry struct {
	line  int
	fence bool // a fence marker rather than a write-back
	vals  [LineWords]uint64
	vers  [LineWords]uint64
}

// ThreadCtx is a per-thread handle on a Pool. All persistent-memory
// operations of a simulated thread go through its ThreadCtx; a ThreadCtx
// must not be used concurrently from multiple goroutines.
type ThreadCtx struct {
	pool *Pool
	tid  int

	// Owner-only state, never touched by other threads.
	pending    []wbEntry // ModeStrict: scheduled, un-synced write-backs
	epochStart int       // index in pending of the current fence epoch

	localOff, localEnd int // per-thread allocation chunk, in words

	siteGen  uint64   // generation of the cached site-enabled bitmask
	siteBits []uint64 // cached copy of the pool's enabled bitmask

	// Telemetry state, owner-only. sink is the generation-cached copy of
	// the pool's telemetry sink (nil when detached — the steady state,
	// checked with one plain load per persistence instruction). The other
	// fields accumulate per-site write-back counts between PSyncs for
	// stall attribution; they are touched only while a sink is attached.
	sink        TelemetrySink
	telePend    []uint64    // per-site PWBs since the last PSync
	teleTouched []Site      // sites with a non-zero telePend entry
	teleBuf     []SiteStall // reusable argument buffer for TelemetryPSync

	// Counters. The owner updates each with one uncontended atomic add
	// (its line stays exclusive in the owner's cache); Stats snapshots
	// read them while the run is in flight, hence the atomics. The pad
	// keeps another heap object's hot fields off the counters' lines.
	_            [64]byte
	pwbPerSite   []atomic.Uint64 // header swapped only by the owner, see countPWB
	psyncs       atomic.Uint64
	pfences      atomic.Uint64
	spun         atomic.Uint64 // total simulated spin units charged
	pwbsExecuted atomic.Uint64 // ModeFast write-back charges that actually spun
	_            [64]byte
}

// NewThread creates the ThreadCtx for thread id tid. Ids must be unique and
// in [0, MaxThreads); reusing an id after a crash (re-creating the thread)
// is allowed once the previous ctx is abandoned.
func (p *Pool) NewThread(tid int) *ThreadCtx {
	if tid < 0 {
		panic(fmt.Sprintf("pmem: negative thread id %d", tid))
	}
	ctx := &ThreadCtx{pool: p, tid: tid}
	p.mu.Lock()
	ctx.pwbPerSite = make([]atomic.Uint64, len(p.sites))
	ctx.sink = p.telemetry
	p.ctxs = append(p.ctxs, ctx)
	p.mu.Unlock()
	return ctx
}

// NewThreads creates n thread contexts with consecutive ids base..base+n-1,
// for callers that fan recovery work across a worker pool and need one
// context per worker (a ThreadCtx is single-goroutine by contract).
func (p *Pool) NewThreads(base, n int) []*ThreadCtx {
	if n < 0 {
		panic(fmt.Sprintf("pmem: negative thread count %d", n))
	}
	ctxs := make([]*ThreadCtx, n)
	for i := range ctxs {
		ctxs[i] = p.NewThread(base + i)
	}
	return ctxs
}

// TID returns the thread id of this context.
func (ctx *ThreadCtx) TID() int { return ctx.tid }

// Pool returns the pool this context operates on.
func (ctx *ThreadCtx) Pool() *Pool { return ctx.pool }

// AllocWords allocates n fresh zeroed words and returns their address.
// Freshly allocated memory is zero in both the volatile and durable views.
func (ctx *ThreadCtx) AllocWords(n int) Addr {
	ctx.pool.checkCrash()
	return ctx.pool.alloc(n)
}

// AllocLines allocates n whole cache lines, line-aligned, for
// thread-private persistent variables.
func (ctx *ThreadCtx) AllocLines(n int) Addr {
	ctx.pool.checkCrash()
	return ctx.pool.allocLines(n)
}

// TryAllocLines allocates n whole cache lines like AllocLines but reports
// exhaustion instead of panicking, so growable arenas (internal/rmm) can
// stop growing gracefully when the pool runs out. On failure the reserved
// words are rolled back when no later reservation raced in; racing
// failures leak their overshoot, which is harmless — the arena is full.
func (ctx *ThreadCtx) TryAllocLines(n int) (Addr, bool) {
	ctx.pool.checkCrash()
	return ctx.pool.tryAllocLines(n)
}

// localChunkWords is the refill size of the per-thread allocation cache.
const localChunkWords = 1024

// AllocLocal allocates n fresh zeroed words from a per-thread chunk. Like a
// real NVMM allocator with thread-local arenas, it keeps freshly allocated
// objects of different threads in different cache lines, so flushing
// not-yet-shared data stays cheap (one of the paper's Low-impact pwb
// classes). The global bump pointer is touched once per chunk refill, not
// once per allocation. n must not exceed the chunk size.
func (ctx *ThreadCtx) AllocLocal(n int) Addr {
	ctx.pool.checkCrash()
	if n > localChunkWords {
		return ctx.pool.alloc(n)
	}
	if ctx.localOff+n > ctx.localEnd {
		a := ctx.pool.allocLines(localChunkWords / LineWords)
		ctx.localOff = int(a / WordSize)
		ctx.localEnd = ctx.localOff + localChunkWords
	}
	a := Addr(ctx.localOff * WordSize)
	ctx.localOff += n
	return a
}

// Load lives in words_relaxed.go / words_atomic.go: it is the one accessor
// hot (and small) enough to be worth fitting into the inlining budget,
// which requires reading crashCtl and wordLimit as direct fields.

// The accessors below fold the crash check, the alignment check and the
// bounds check into one branch on the common path; see slowpathCheck for
// the rare cases.

// Store atomically writes v to the word at a in the volatile view and marks
// its line dirty. The write becomes durable only after a PWB of its line
// completes (or the line is evicted).
func (ctx *ThreadCtx) Store(a Addr, v uint64) {
	p := ctx.pool
	wi := int(a >> 3)
	if uint64(p.ctlFast())|(uint64(a)&(WordSize-1)) != 0 ||
		uint(wi-1) >= uint(len(p.words)-1) {
		wi = p.slowpathCheck(a)
	}
	if p.mode == ModeStrict {
		ver := p.beginWrite(wi)
		p.storeWord(wi, v)
		ctx.endWrite(wi, ver, true)
		return
	}
	p.storeWord(wi, v)
}

// Strict-mode writes bracket the value change in a per-word seqlock:
// beginWrite claims the word by turning its version odd (one writer at a
// time), endWrite releases it with the next even version. snapLine never
// pairs a value with a version from the other side of a write — it retries
// while the version is odd or moved — so a write-back of a line another
// thread is writing captures either the old value with the old version or
// the new value with the new one. (A version published only after the
// value would let a concurrent snapshot pair the new value with the old
// version, which commitLine discards as not newer than the durable copy:
// a flush-before-use of a foreign write would persist nothing.)

// beginWrite claims word wi for a strict-mode write and returns its
// (odd) in-progress version. The holder of a claim is between two
// instructions of one accessor, so waiters only yield.
func (p *Pool) beginWrite(wi int) uint64 {
	for {
		v := atomic.LoadUint64(&p.wver[wi])
		if v&1 == 0 && atomic.CompareAndSwapUint64(&p.wver[wi], v, v+1) {
			return v + 1
		}
		runtime.Gosched()
	}
}

// endWrite releases the claim beginWrite returned as ver, publishing the
// fresh even version ver+1, and returns it. When the write changed the
// word it also records the line's dirty bit and writing thread (evictions
// must respect its fences).
func (ctx *ThreadCtx) endWrite(wi int, ver uint64, changed bool) uint64 {
	p := ctx.pool
	ver++
	p.releaseVersion(wi, ver)
	if changed {
		p.markDirty(wi/LineWords, int32(ctx.tid+1))
	}
	return ver
}

// StoreDurable models a system-level failure-atomic persistent store: the
// word is written and made durable as a single indivisible action (either
// the crash precedes it entirely or the new value is durable). The paper's
// crash-recovery model needs one such primitive: the system's reset of the
// per-thread check-point CP to 0, performed atomically with an operation's
// invocation (Section 2 and footnote 1 — detectable algorithms require
// system support). It is not available to algorithm code, which must use
// Store/PWB/PSync.
func (ctx *ThreadCtx) StoreDurable(s Site, a Addr, v uint64) {
	p := ctx.pool
	p.checkCrash()
	wi := p.wordIndex(a)
	stall := 0
	switch p.mode {
	case ModeStrict:
		ver := p.beginWrite(wi)
		p.storeWord(wi, v)
		p.commitWord(wi, ctx.endWrite(wi, ver, true), v)
	case ModeFast:
		p.storeWord(wi, v)
		stall = ctx.chargePWB(wi / LineWords)
	}
	if ctx.siteOn(s) {
		ctx.countPWB(s)
		if ctx.sink != nil {
			ctx.telePWB(s, stall)
		}
		if p.ctlFast()&ctlSiteArm != 0 {
			ctx.siteHit(s)
		}
	}
}

// CAS atomically compares-and-swaps the word at a and reports success.
//
// The compare always runs the real CMPXCHG, deliberately without a
// test-and-test-and-set shortcut: hardware charges the full locked
// read-modify-write even when the compare fails, so resolving a doomed
// CAS from a plain read would undercharge exactly the contended
// executions the simulation is supposed to price. The locked operation's
// cost is irreducible and part of the modeled instruction mix.
func (ctx *ThreadCtx) CAS(a Addr, old, new uint64) bool {
	p := ctx.pool
	wi := int(a >> 3)
	if uint64(p.ctlFast())|(uint64(a)&(WordSize-1)) != 0 ||
		uint(wi-1) >= uint(len(p.words)-1) {
		wi = p.slowpathCheck(a)
	}
	return p.strictCAS(ctx, wi, old, new)
}

// CASV is CAS that additionally returns the value observed when the CAS
// fails (the `res` of Algorithm 2 line 35). On success prev == old.
func (ctx *ThreadCtx) CASV(a Addr, old, new uint64) (prev uint64, ok bool) {
	p := ctx.pool
	p.checkCrash()
	wi := p.wordIndex(a)
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

// strictCAS is casWord with the strict-mode write bracket (a plain casWord
// in ModeFast).
func (p *Pool) strictCAS(ctx *ThreadCtx, wi int, old, new uint64) bool {
	if p.mode != ModeStrict {
		return p.casWord(wi, old, new)
	}
	ver := p.beginWrite(wi)
	ok := p.casWord(wi, old, new)
	ctx.endWrite(wi, ver, ok)
	return ok
}

// PWB schedules a persistent write-back of the cache line containing a.
// The site identifies the issuing code line for the paper's per-site
// accounting; a disabled site makes the PWB a no-op (the "code line
// removed" experiments).
func (ctx *ThreadCtx) PWB(s Site, a Addr) {
	p := ctx.pool
	wi := int(a >> 3)
	if uint64(p.ctlFast())|(uint64(a)&(WordSize-1)) != 0 ||
		uint(wi-1) >= uint(len(p.words)-1) {
		wi = p.slowpathCheck(a)
	}
	if ctx.siteOn(s) {
		ctx.recordPWB(s, wi/LineWords)
	}
}

// PWBRange issues the PWBs needed to write back words [a, a+words*8), one
// per cache line covered. It models flushing a freshly initialized object.
func (ctx *ThreadCtx) PWBRange(s Site, a Addr, words int) {
	if words <= 0 {
		return
	}
	p := ctx.pool
	p.checkCrash()
	if !ctx.siteOn(s) {
		return
	}
	first := p.wordIndex(a) / LineWords
	last := p.wordIndex(a+Addr((words-1)*WordSize)) / LineWords
	for line := first; line <= last; line++ {
		ctx.recordPWB(s, line)
	}
}

// recordPWB is the one code path of a recorded write-back of line at an
// enabled site s: the site count, the write-back itself, the telemetry
// report and the crash-site countdown. Neither mode defers: strict mode
// captures the line at the record point, fast mode pays its charge there.
func (ctx *ThreadCtx) recordPWB(s Site, line int) {
	p := ctx.pool
	ctx.countPWB(s)
	stall := 0
	if p.mode == ModeStrict {
		ctx.captureLine(line)
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

// captureLine schedules a write-back of line with its current volatile
// content and versions.
//
// A cache holds at most one pending write-back per line: flushing a line
// that is already scheduled — and not yet ordered by a fence — refreshes
// the content the write-back will carry rather than queueing a second one.
// Coalescing duplicate flushes reproduces that and keeps the pending queue
// (and the commitPending work on every PSync) short for flush-heavy
// algorithms such as Capsules, which write back the same capsule line
// several times between fences. Entries of earlier fence epochs must not
// be refreshed — their content is ordered before the fence — so the scan
// stops at the epoch boundary. It is also shallow: each wbEntry is two
// cache lines of captured payload, so probing an entry's line field is a
// cache miss, and flush patterns that benefit repeat a line immediately
// (depth 1) or alternate two lines (depth 2). A duplicate the scan misses
// only costs one redundant entry, which the version-guarded commit
// applies idempotently.
func (ctx *ThreadCtx) captureLine(line int) {
	floor := ctx.epochStart
	if f := len(ctx.pending) - 2; f > floor {
		floor = f
	}
	for i := len(ctx.pending) - 1; i >= floor; i-- {
		if e := &ctx.pending[i]; e.line == line && !e.fence {
			ctx.pool.snapLine(e)
			return
		}
	}
	ctx.pending = append(ctx.pending, wbEntry{line: line})
	ctx.pool.snapLine(&ctx.pending[len(ctx.pending)-1])
}

// snapLine fills a write-back entry with the line's current volatile
// content and versions, each word's (value, version) pair read under its
// write seqlock (see beginWrite): the versions are read before and after
// the values, and the read retries while a write is open (odd version) or
// closed in between.
func (p *Pool) snapLine(e *wbEntry) {
	base := e.line * LineWords
	for {
		open := uint64(0)
		for i := 0; i < LineWords; i++ {
			e.vers[i] = atomic.LoadUint64(&p.wver[base+i])
			open |= e.vers[i] & 1
		}
		for i := 0; i < LineWords; i++ {
			e.vals[i] = p.loadWord(base + i)
		}
		for i := 0; i < LineWords; i++ {
			open |= atomic.LoadUint64(&p.wver[base+i]) ^ e.vers[i]
		}
		if open == 0 {
			return
		}
		runtime.Gosched() // a writer is between its two version stores
	}
}

// chargePWB performs the ModeFast cost accounting for a write-back of line
// and returns the spin units charged (for telemetry stall attribution).
// It touches shared per-line metadata (real contention, as on the modeled
// hardware: the flushed line itself moves between caches) and spins in
// proportion to the line's flush heat.
func (ctx *ThreadCtx) chargePWB(line int) int {
	p := ctx.pool
	m := atomic.LoadUint64(&p.lineMeta[line])
	last := int(m & 0xffffffff)
	heat := int(m >> 32)
	if last != ctx.tid+1 {
		if heat < p.cost.MaxHeat {
			heat++
		}
	} else if heat > 0 {
		heat--
	}
	atomic.StoreUint64(&p.lineMeta[line], uint64(heat)<<32|uint64(ctx.tid+1))
	ctx.pwbsExecuted.Add(1)
	n := p.cost.PWBBase + heat*p.cost.PWBHeatUnit
	spin(n)
	ctx.spun.Add(uint64(n))
	return n
}

// PFence orders the thread's preceding PWBs before its subsequent PWBs.
func (ctx *ThreadCtx) PFence() {
	p := ctx.pool
	p.checkCrash()
	if !p.psyncEnabled.Load() {
		return
	}
	ctx.pfences.Add(1)
	if ctx.sink != nil {
		ctx.sink.TelemetryPFence(ctx.tid)
	}
	if p.mode == ModeStrict {
		ctx.pending = append(ctx.pending, wbEntry{fence: true})
		ctx.epochStart = len(ctx.pending)
	}
	// ModeFast: fences are free; on the modelled hardware every CAS
	// already serializes outstanding stores (paper Section 5, finding 1).
}

// PSync waits until all of the thread's scheduled write-backs complete.
// After PSync returns, every preceding PWB of this thread is durable.
func (ctx *ThreadCtx) PSync() {
	p := ctx.pool
	p.checkCrash()
	if !p.psyncEnabled.Load() {
		// The "no psync" experiments remove the instruction from the
		// code; in ModeStrict we still commit pending write-backs so
		// that correctness tests cannot be run in a silently broken
		// configuration (the flag is a benchmarking device).
		if p.mode == ModeStrict {
			ctx.commitPending()
		}
		return
	}
	ctx.psyncs.Add(1)
	switch p.mode {
	case ModeStrict:
		if ctx.sink != nil {
			ctx.telePSync(0, ctx.commitPendingTimed())
		} else {
			ctx.commitPending()
		}
	case ModeFast:
		spin(p.cost.PSyncCost)
		ctx.spun.Add(uint64(p.cost.PSyncCost))
		if ctx.sink != nil {
			ctx.telePSync(int64(p.cost.PSyncCost), 0)
		}
	}
}

// commitPending completes every scheduled write-back of this thread.
func (ctx *ThreadCtx) commitPending() {
	p := ctx.pool
	for i := range ctx.pending {
		e := &ctx.pending[i]
		if !e.fence {
			p.commitLine(e)
		}
	}
	ctx.pending = ctx.pending[:0]
	ctx.epochStart = 0
}

// commitLine writes a captured line snapshot to the durable view, skipping
// any word for which a newer version is already durable (per-location
// write-backs preserve program order).
func (p *Pool) commitLine(e *wbEntry) {
	base := e.line * LineWords
	for i := 0; i < LineWords; i++ {
		if e.vers[i] > atomic.LoadUint64(&p.dver[base+i])&^dverCommitting {
			p.commitWord(base+i, e.vers[i], e.vals[i])
		}
	}
}

// dverCommitting marks a durable version whose value store is in
// progress: a commit claims the word by CAS to ver|dverCommitting, stores
// the value, then publishes ver. Claiming and storing as one step keeps two
// threads committing different versions of a word from interleaving and
// leaving the older value durable under the newer version.
const dverCommitting = 1 << 63

// commitWord makes (v, ver) the durable copy of word wi unless a version
// at least as new is already durable.
func (p *Pool) commitWord(wi int, ver, v uint64) {
	for {
		dv := atomic.LoadUint64(&p.dver[wi])
		if dv&dverCommitting != 0 {
			runtime.Gosched()
			continue
		}
		if ver <= dv {
			return
		}
		if atomic.CompareAndSwapUint64(&p.dver[wi], dv, ver|dverCommitting) {
			p.releaseDurable(wi, ver, v)
			return
		}
	}
}

// Pause is the spin-wait hint of a thread busy-waiting for another
// thread's write (x86 PAUSE): it reports EventPause to the telemetry sink,
// if any, and yields the processor. A harness that schedules the simulated
// threads itself (chaos.Schedule.Lockstep) passes the turn there, so the
// thread being waited for can run.
func (ctx *ThreadCtx) Pause() {
	if ctx.sink != nil {
		ctx.sink.TelemetryEvent(EventPause, ctx.tid, NoSite, 0)
	}
	runtime.Gosched()
}

// PendingWritebacks reports how many write-backs this thread has scheduled
// but not yet synced (ModeStrict diagnostics).
func (ctx *ThreadCtx) PendingWritebacks() int {
	n := 0
	for i := range ctx.pending {
		if !ctx.pending[i].fence {
			n++
		}
	}
	return n
}
