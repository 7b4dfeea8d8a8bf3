package pmem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Addr is a byte offset into a Pool. Valid addresses are 8-byte aligned and
// non-zero, so the three low bits are available for tags (the Tracking
// algorithms use bit 0 to tag descriptor pointers). Null (0) is the nil
// reference.
type Addr uint64

// Null is the nil persistent reference. Word 0 of every pool is reserved so
// that no valid allocation has address 0.
const Null Addr = 0

// WordSize is the size in bytes of one pool word.
const WordSize = 8

// LineWords is the number of words in one simulated cache line (64 bytes).
const LineWords = 8

// LineBytes is the size in bytes of one simulated cache line.
const LineBytes = LineWords * WordSize

// Mode selects how a Pool models persistence.
type Mode int

const (
	// ModeStrict maintains an exact durable view and supports Crash and
	// Recover. Use it for correctness and crash-injection testing.
	ModeStrict Mode = iota
	// ModeFast replaces durable bookkeeping with a calibrated cost model.
	// Use it for throughput benchmarking.
	ModeFast
)

// CostModel configures the simulated latency of persistence instructions in
// ModeFast. Costs are in abstract spin units (roughly a nanosecond each on
// contemporary hardware).
type CostModel struct {
	// PWBBase is the cost of writing back a line nobody else touches
	// (a thread-private counter or a freshly allocated node).
	PWBBase int
	// PWBHeatUnit is the additional cost per unit of line heat. Heat
	// rises each time a different thread writes back or writes the line,
	// and decays when the same thread touches it repeatedly, so a line
	// flushed by many threads converges to MaxHeat.
	PWBHeatUnit int
	// MaxHeat caps the heat of a line.
	MaxHeat int
	// PSyncCost is the cost of a PSync. The paper found this negligible
	// on Intel hardware because CAS instructions already serialize
	// outstanding stores; the default models that.
	PSyncCost int
}

// DefaultCostModel mirrors the relative costs observed in the paper:
// cheap private flushes, expensive contended flushes, ~free fences.
func DefaultCostModel() CostModel {
	return CostModel{PWBBase: 15, PWBHeatUnit: 150, MaxHeat: 16, PSyncCost: 4}
}

// Config parameterizes a Pool.
type Config struct {
	Mode Mode
	// CapacityWords is the size of the arena. Allocation is a bump
	// pointer and memory is never reused within a run (the algorithms
	// assume a garbage collector, as does the paper); size the pool for
	// the run length.
	CapacityWords int
	// MaxThreads bounds the number of ThreadCtx values; thread ids must
	// be in [0, MaxThreads).
	MaxThreads int
	// Cost is the ModeFast cost model; zero value means DefaultCostModel.
	Cost CostModel
}

// crashCtl bits. The zero value (no bit set) is the steady state every
// access checks with a single load.
const (
	ctlCrashed  = 1 << 0 // a crash is pending: thread ops panic ErrCrashed
	ctlCounting = 1 << 1 // crashAfter counts down pool accesses to a crash
	ctlSiteArm  = 1 << 2 // a site-targeted crash is armed, see sitecrash.go
)

// Pool is a simulated NVMM arena. All exported methods are safe for
// concurrent use except Crash and Recover, which require that every thread
// operating on the pool is parked (see TriggerCrash).
type Pool struct {
	mode Mode
	cost CostModel

	words []uint64 // volatile view; access via loadWord/storeWord
	// wordLimit is len(words)-1, immutable after New. The inlined Load
	// fast path tests `wi-1 >= wordLimit` (one compare catching word 0,
	// unaligned-overflow and out-of-range at once); reading a scalar
	// field costs the inliner less than len() on the slice.
	wordLimit uint

	// Strict mode state.
	durable []uint64 // durable view
	wver    []uint64 // volatile per-word version, bumped on every write
	dver    []uint64 // version of the durable copy of each word
	dirty   []uint32 // per-line dirty flag (set on write, for eviction)
	writer  []int32  // per-line last writer tid+1 (for eviction ordering)

	// Fast mode state.
	lineMeta []uint64 // per-line packed (heat<<32 | lastTid+1)

	// Mutable pool-global atomics. Each is separated from its neighbours
	// by at least a cache line: allocation bumps, crash arming, psync
	// toggles and site reconfiguration are independent write streams, and
	// sharing a line among them would put real (simulator-induced)
	// coherence traffic on every simulated access of every thread.
	_          [64]byte
	allocWords atomic.Uint64 // bump pointer, in words
	_          [64]byte
	// crashCtl holds the ctlCrashed|ctlCounting bits; 0 on the hot path.
	// It is a raw word, always written with sync/atomic, and read on the
	// hot path via ctlFast (a plain MOV in the x86-TSO build, an atomic
	// load under the race detector) so that the accessors in ctx.go fit
	// the compiler's inlining budget — the inliner prices every atomic
	// intrinsic as a full call.
	crashCtl   uint32
	_          [64]byte
	crashAfter atomic.Int64 // armed countdown (valid while ctlCounting)
	_          [64]byte
	// siteArm packs the armed crash site (high 32 bits, offset by 1 so
	// zero means "none") and is valid while ctlSiteArm is set; siteHits is
	// the remaining executed-PWB count before the crash fires. Both live
	// on one dedicated line: they are written together on arming and the
	// countdown is decremented only by hits of the armed site.
	siteArm      atomic.Int64
	siteArmHits  atomic.Int64
	_            [48]byte
	psyncEnabled atomic.Bool // false models "psyncs removed" experiments
	_            [64]byte
	siteGen      atomic.Uint64 // site-table generation, see sites.go
	_            [64]byte

	mu          sync.Mutex
	ctxs        []*ThreadCtx
	sites       []*siteInfo
	enabledBits []uint64 // per-site enabled bitmask, under mu
	genLocked   uint64   // shadow of siteGen, under mu
	// telemetry is the attached sink (nil when detached), under mu;
	// threads consult their generation-cached copy (see telemetry.go).
	telemetry TelemetrySink
}

// New creates a Pool. It panics on an invalid configuration; a simulation
// cannot run without its arena, so this is an initialization-time failure.
func New(cfg Config) *Pool {
	if cfg.CapacityWords < LineWords {
		panic("pmem: CapacityWords too small")
	}
	if cfg.MaxThreads <= 0 {
		panic("pmem: MaxThreads must be positive")
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	// Round capacity up to a whole number of lines.
	capWords := (cfg.CapacityWords + LineWords - 1) / LineWords * LineWords
	p := &Pool{
		mode:  cfg.Mode,
		cost:  cfg.Cost,
		words: make([]uint64, capWords),
	}
	p.wordLimit = uint(capWords) - 1
	switch cfg.Mode {
	case ModeStrict:
		p.durable = make([]uint64, capWords)
		p.wver = make([]uint64, capWords)
		p.dver = make([]uint64, capWords)
		p.dirty = make([]uint32, capWords/LineWords)
		p.writer = make([]int32, capWords/LineWords)
	case ModeFast:
		p.lineMeta = make([]uint64, capWords/LineWords)
	default:
		panic(fmt.Sprintf("pmem: unknown mode %d", cfg.Mode))
	}
	p.psyncEnabled.Store(true)
	// Reserve line 0 so that Addr 0 is never a valid allocation.
	p.allocWords.Store(LineWords)
	return p
}

// Mode reports the pool's persistence mode.
func (p *Pool) Mode() Mode { return p.mode }

// CapacityWords reports the arena size in words.
func (p *Pool) CapacityWords() int { return len(p.words) }

// AllocatedWords reports how many words have been allocated so far.
func (p *Pool) AllocatedWords() int {
	n := p.allocWords.Load()
	// The bump pointer may transiently overshoot capacity while a failed
	// allocation is being rolled back; clamp so callers never see more
	// than the arena holds.
	if n > uint64(len(p.words)) {
		return len(p.words)
	}
	return int(n)
}

// SetPsyncEnabled turns all PSync and PFence instructions into no-ops when
// false, implementing the paper's "psyncs removed" experiments (Figures 3c
// and 4c). It affects cost accounting only; in ModeStrict psyncs always
// retain their semantics so that correctness tests remain meaningful.
func (p *Pool) SetPsyncEnabled(on bool) { p.psyncEnabled.Store(on) }

// wordIndex validates a and returns its word index. The common case is
// branch-free enough to inline; all failure reporting is outlined.
func (p *Pool) wordIndex(a Addr) int {
	wi := int(a >> 3)
	if uint64(a)&(WordSize-1) != 0 || uint(wi-1) >= uint(len(p.words)-1) {
		p.badAddr(a)
	}
	return wi
}

// badAddr reports an invalid address. Outlined so that wordIndex stays
// within the inlining budget of the accessors that use it.
//
//go:noinline
func (p *Pool) badAddr(a Addr) {
	if a&(WordSize-1) != 0 {
		panic(fmt.Sprintf("pmem: unaligned address %#x", uint64(a)))
	}
	panic(fmt.Sprintf("pmem: address %#x out of range", uint64(a)))
}

// slowpathCheck re-runs the crash check and address validation off the hot
// path. Accessors branch here on the (rare) combined condition "crash
// control armed, address unaligned, or address out of range"; sorting out
// which it was — and panicking accordingly — does not belong in their
// inlined bodies.
//
//go:noinline
func (p *Pool) slowpathCheck(a Addr) int {
	p.checkCrashSlow()
	return p.wordIndex(a)
}

// badAddrError is the panic value raised by Load's inlined slow path on
// an invalid address. All formatting is deferred to Error(), so raising
// it costs the inliner one node where a fmt call would cost the whole
// budget. It is distinct from ErrCrashed by identity, which is what the
// crash harnesses compare against.
type badAddrError Addr

func (e badAddrError) Error() string {
	a := Addr(e)
	if a&(WordSize-1) != 0 {
		return fmt.Sprintf("pmem: unaligned address %#x", uint64(a))
	}
	return fmt.Sprintf("pmem: address %#x out of range", uint64(a))
}

// alloc returns a fresh region of n words. Regions are word-aligned;
// callers needing line alignment use AllocLines.
func (p *Pool) alloc(n int) Addr {
	if n <= 0 {
		panic("pmem: alloc of non-positive size")
	}
	end := p.allocWords.Add(uint64(n))
	if end > uint64(len(p.words)) {
		p.allocFailed(end, uint64(n))
	}
	return Addr((end - uint64(n)) * WordSize)
}

// allocFailed rolls back a reservation that overshot the arena and reports
// the exhaustion. The rollback is a single CAS: it can only succeed while
// no later reservation has happened, which keeps it from freeing words
// that a subsequent allocation may have claimed after its own rollback.
// If several failed allocations race, the overshoot words stay leaked —
// the pool is exhausted and panicking anyway — but the words below
// capacity remain allocatable.
//
//go:noinline
func (p *Pool) allocFailed(end, n uint64) {
	p.allocWords.CompareAndSwap(end, end-n)
	panic(fmt.Sprintf("pmem: pool exhausted allocating %d words (capacity %d words); size the pool for the run", n, len(p.words)))
}

// allocLines returns a line-aligned region of n whole lines. Used for
// thread-private persistent variables (RD, CP) so they never share a cache
// line with another thread's data (false sharing would distort the cost
// model, and the paper's analysis depends on such flushes being private).
//
// A single fetch-and-add reserves enough words to align within the
// reservation, so concurrent refills never retry against each other (the
// seed's load-CAS loop made every AllocLocal refill a contention point on
// the bump pointer). At most LineWords-1 words per call are wasted on
// alignment.
func (p *Pool) allocLines(n int) Addr {
	if n <= 0 {
		panic("pmem: allocLines of non-positive size")
	}
	need := uint64(n*LineWords + LineWords - 1)
	end := p.allocWords.Add(need)
	if end > uint64(len(p.words)) {
		p.allocFailed(end, need)
	}
	start := (end - need + LineWords - 1) &^ (LineWords - 1)
	return Addr(start * WordSize)
}

// tryAllocLines is allocLines with exhaustion reported instead of raised.
// It shares the reservation/rollback discipline of allocFailed: the CAS
// rollback only succeeds while no later reservation happened, so it never
// frees words a subsequent allocation claimed.
func (p *Pool) tryAllocLines(n int) (Addr, bool) {
	if n <= 0 {
		panic("pmem: allocLines of non-positive size")
	}
	need := uint64(n*LineWords + LineWords - 1)
	end := p.allocWords.Add(need)
	if end > uint64(len(p.words)) {
		p.allocWords.CompareAndSwap(end, end-need)
		return Null, false
	}
	start := (end - need + LineWords - 1) &^ (LineWords - 1)
	return Addr(start * WordSize), true
}

// NumRootSlots is the number of well-known root pointer slots in a pool.
// Real persistent-memory pools expose a fixed root object from which all
// durable data must be reachable after a restart; slots play that role here.
const NumRootSlots = 7

// RootSlots reports how many root slots the pool has. Structures that
// consume one slot per instance (or services that consume one slot per
// shard) must check their slot demand against this capacity up front;
// slots live in the reserved first cache line, so the count cannot grow
// with the pool. Services needing more roots than this should allocate a
// durable directory region and publish it through a single slot (see
// internal/kvstore).
func (p *Pool) RootSlots() int { return NumRootSlots }

// RootSlotChecked is RootSlot with the range check reported as an error
// instead of a panic, for construction- and attach-time validation.
func (p *Pool) RootSlotChecked(i int) (Addr, error) {
	if i < 0 || i >= NumRootSlots {
		return Null, fmt.Errorf("pmem: root slot %d out of range [0, %d)", i, NumRootSlots)
	}
	return Addr((i + 1) * WordSize), nil
}

// RootSlot returns the address of well-known root slot i (0-based). Slots
// live in the reserved first cache line of the pool, so their addresses are
// identical across restarts. Structures persist their header addresses here
// so recovery code can find them. It panics when i is out of range; use
// RootSlotChecked to validate caller-supplied slot indices.
func (p *Pool) RootSlot(i int) Addr {
	a, err := p.RootSlotChecked(i)
	if err != nil {
		panic(err.Error())
	}
	return a
}

// ValidWords reports whether the words-long region starting at a lies
// entirely within the pool and a is word-aligned. Attach paths use it to
// reject garbage header addresses (a stale or wrong root slot) with a
// descriptive error instead of an out-of-bounds panic mid-parse.
func (p *Pool) ValidWords(a Addr, words int) bool {
	if a == Null || words <= 0 || uint64(a)%WordSize != 0 {
		return false
	}
	start := uint64(a) / WordSize
	return start < uint64(len(p.words)) && uint64(words) <= uint64(len(p.words))-start
}

// DurableLoad reads a word from the durable view. It is meaningful only in
// ModeStrict and is intended for tests and recovery diagnostics.
func (p *Pool) DurableLoad(a Addr) uint64 {
	if p.mode != ModeStrict {
		panic("pmem: DurableLoad requires ModeStrict")
	}
	return atomic.LoadUint64(&p.durable[p.wordIndex(a)])
}

// TriggerCrash initiates a system-wide crash: every subsequent pool access
// by any ThreadCtx panics with ErrCrashed. The crash orchestrator (see
// internal/chaos) recovers those panics, waits for all threads to park, and
// then calls Crash followed by Recover.
func (p *Pool) TriggerCrash() {
	p.setCrashCtl(ctlCrashed)
	p.emitPoolEvent(EventCrashTriggered, NoSite, 0)
}

// CrashPending reports whether a crash has been triggered and not yet
// resolved by Crash/Recover.
func (p *Pool) CrashPending() bool {
	return atomic.LoadUint32(&p.crashCtl)&ctlCrashed != 0
}

// SetCrashAfter arms a crash trigger that fires after n further pool
// accesses (by any thread). It gives crash-injection tests deterministic,
// instruction-level crash points. n <= 0 disarms the trigger.
func (p *Pool) SetCrashAfter(n int64) {
	if n <= 0 {
		p.crashAfter.Store(0)
		p.clearCrashCtl(ctlCounting)
		return
	}
	p.crashAfter.Store(n)
	p.setCrashCtl(ctlCounting)
}

// checkCrash is on the path of every simulated memory access. In the
// steady state (no crash pending, no countdown armed) it is a single load
// of a dedicated read-mostly cache line; everything else is outlined.
func (p *Pool) checkCrash() {
	if p.ctlFast() != 0 {
		p.checkCrashSlow()
	}
}

//go:noinline
func (p *Pool) checkCrashSlow() {
	ctl := atomic.LoadUint32(&p.crashCtl)
	if ctl&ctlCrashed != 0 {
		panic(ErrCrashed)
	}
	// The countdown decrements once per access while armed; exactly one
	// access observes zero and becomes the crash point. Later accesses
	// drive the counter negative, which never re-fires.
	if ctl&ctlCounting != 0 && p.crashAfter.Add(-1) == 0 {
		p.setCrashCtl(ctlCrashed)
		panic(ErrCrashed)
	}
}

// setCrashCtl and clearCrashCtl update crashCtl bits with CAS loops
// (this module's Go version has no atomic Or/And).
func (p *Pool) setCrashCtl(bit uint32) {
	for {
		old := atomic.LoadUint32(&p.crashCtl)
		if old&bit != 0 || atomic.CompareAndSwapUint32(&p.crashCtl, old, old|bit) {
			return
		}
	}
}

func (p *Pool) clearCrashCtl(bit uint32) {
	for {
		old := atomic.LoadUint32(&p.crashCtl)
		if old&bit == 0 || atomic.CompareAndSwapUint32(&p.crashCtl, old, old&^bit) {
			return
		}
	}
}

// crashed is the type of the ErrCrashed sentinel.
type crashed struct{}

func (crashed) Error() string { return "pmem: system-wide crash" }

// ErrCrashed is the panic value raised by pool accesses after TriggerCrash.
// Thread loops run under chaos recovery catch it and park.
var ErrCrashed error = crashed{}
