package pmem

import "fmt"

// Cross-operation persistence batching: a per-thread write-combining
// buffer that records pwb'd lines instead of charging them immediately,
// merging duplicate flushes across operations up to a bounded epoch, plus
// a group-psync discipline that amortizes one sync over the operations of
// the epoch. The paper's cost finding (fences near-free, flushes of
// contended lines dominant) says exactly where this pays: algorithms that
// re-flush the same lines operation after operation (a log tail, a
// combiner's announce array, adjacent log entries sharing a cache line).
//
// The batching layer must not change what the crash machinery can observe:
//
//   - The *record point* is unchanged. A batched PWB still counts against
//     its site (countPWB), still reports to telemetry, and still drives
//     SetCrashAtSite's hit countdown — so the deterministic sweep's site
//     profile, its (site, hit) task matrix, and its per-task instruction
//     metrics are identical with batching on or off.
//   - ModeStrict defers nothing. Write-backs are captured at PWB time and
//     committed at PSync time exactly as without batching, so the durable
//     states reachable at every psync boundary — the crash-state space the
//     sweep enumerates — are byte-identical. In strict mode the buffer is
//     pure bookkeeping (merge opportunity counters, the retire guard).
//   - ModeFast is where deferral is real: a batched PWB records its line
//     and skips the charge; a batched PSync defers its sync. The drain
//     charges each distinct line once and executes one sync for the whole
//     group. Deferral is bounded by BatchConfig, and a drain runs at epoch
//     close (EndBatch), at the configured bounds, and at thread retire.
//
// Batching is opt-in per thread (BeginBatch/EndBatch) or ambient per pool
// (SetBatchPolicy); with neither, every path in this file is skipped and
// the per-instruction cost model is exactly the unbatched one.

// Default epoch bounds, applied where a BatchConfig field is zero. The
// line bound is sized like a real write-combining structure: small enough
// that the dedup scan stays in one or two cache lines of indices.
const (
	DefaultBatchLines = 32
	DefaultBatchOps   = 8
)

// BatchConfig bounds one write-combining epoch. Zero fields take the
// package defaults; the zero value as a whole passed to SetBatchPolicy
// disables the ambient policy.
type BatchConfig struct {
	// MaxLines drains the deferred line charges (without closing the
	// epoch) once this many distinct lines are buffered.
	MaxLines int
	// MaxOps drains — charges plus one group sync — once this many
	// psyncs have been deferred in the epoch.
	MaxOps int
}

func (cfg BatchConfig) withDefaults() BatchConfig {
	if cfg.MaxLines <= 0 {
		cfg.MaxLines = DefaultBatchLines
	}
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = DefaultBatchOps
	}
	return cfg
}

// Active reports whether the config enables batching at all: the ambient
// pool policy treats the zero value as "off", and batch-aware structures
// test the pool's policy with it to decide whether to open their own
// epochs.
func (cfg BatchConfig) Active() bool { return cfg.MaxLines > 0 || cfg.MaxOps > 0 }

// BeginBatch opens (or, nested, joins) a write-combining epoch on this
// thread. Until the matching EndBatch, ModeFast write-back charges are
// deferred into a per-thread buffer that merges duplicate lines across
// operations, and psyncs are deferred into one group sync; the configured
// bounds force intermediate drains so deferral stays bounded. ModeStrict
// durability semantics are unchanged inside a batch (see the file
// comment). Nested BeginBatch joins the enclosing epoch; the inner cfg is
// ignored.
func (ctx *ThreadCtx) BeginBatch(cfg BatchConfig) {
	ctx.pool.checkCrash()
	if ctx.batchDepth == 0 {
		ctx.batchCfg = cfg.withDefaults()
	}
	ctx.batchDepth++
}

// EndBatch closes the innermost BeginBatch. Closing the outermost level
// drains the epoch: deferred line charges execute once per distinct line,
// and, if any psyncs were deferred, one group sync runs.
func (ctx *ThreadCtx) EndBatch() {
	if ctx.batchDepth == 0 {
		panic("pmem: EndBatch without BeginBatch")
	}
	ctx.batchDepth--
	if ctx.batchDepth == 0 {
		ctx.autoOpened = false
		ctx.drainWC(true)
	}
}

// InBatch reports whether a write-combining epoch is open on this thread
// (explicitly via BeginBatch or ambiently via the pool's batch policy).
func (ctx *ThreadCtx) InBatch() bool { return ctx.batchDepth > 0 }

// DeferredLines reports how many distinct lines are currently recorded in
// the write-combining buffer (diagnostics; in ModeStrict the lines are
// already captured in the pending queue and nothing is owed).
func (ctx *ThreadCtx) DeferredLines() int { return len(ctx.wcLines) }

// Retire ends this context's participation in the simulation: an open
// write-combining epoch is drained (deferred charges execute, a deferred
// group sync runs) and closed, so no simulated persistence work leaks when
// a worker exits between psyncs. Under SetBatchDebug the drain is replaced
// by a panic, to catch harnesses that leak open batches. Retire is
// idempotent; it does not commit ModeStrict pending write-backs (those are
// owed to the algorithm's own psync discipline, not to thread exit).
func (ctx *ThreadCtx) Retire() {
	if ctx.batchDepth == 0 && len(ctx.wcLines) == 0 && ctx.wcOps == 0 {
		return
	}
	if ctx.pool.batchDebug.Load() {
		panic(fmt.Sprintf("pmem: thread %d retired with an open batch (%d deferred lines, %d deferred psyncs)",
			ctx.tid, len(ctx.wcLines), ctx.wcOps))
	}
	ctx.batchDepth = 0
	ctx.autoOpened = false
	ctx.drainWC(true)
}

// SetBatchPolicy installs (or, with the zero config, removes) an ambient
// write-combining policy: every thread of the pool behaves as if its op
// stream ran inside one long BeginBatch with cfg's bounds, draining at
// MaxLines/MaxOps instead of at an explicit EndBatch. The change
// propagates through the site-table generation, so a running thread
// adopts it at its next site check. This is the opt-in batched-op mode
// the bench runner exposes for structures whose code is not batch-aware.
func (p *Pool) SetBatchPolicy(cfg BatchConfig) {
	if cfg.Active() {
		cfg = cfg.withDefaults()
	} else {
		cfg = BatchConfig{}
	}
	p.mu.Lock()
	p.batchPolicy = cfg
	p.bumpSiteGen()
	p.mu.Unlock()
}

// BatchPolicy returns the ambient write-combining policy (zero when none).
func (p *Pool) BatchPolicy() BatchConfig {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.batchPolicy
}

// SetBatchDebug toggles the retire guard's debug mode: with it on,
// retiring a thread whose write-combining buffer is non-empty panics
// instead of draining, so tests can pin down the harness that leaked the
// open batch.
func (p *Pool) SetBatchDebug(on bool) { p.batchDebug.Store(on) }

// autoBatchOpen opens an ambient batch from the cached pool policy.
// Called on the persistence paths when no batch is open; reports whether
// one was opened. The policy cache rides the same generation as the site
// bitmask, so it is at most one site-table change stale — indistinguishable
// from the policy switch racing the instruction.
//
//go:noinline
func (ctx *ThreadCtx) autoBatchOpen() bool {
	if !ctx.autoBatch.Active() {
		return false
	}
	ctx.batchCfg = ctx.autoBatch
	ctx.batchDepth = 1
	ctx.autoOpened = true
	return true
}

// deferPWB records a fast-mode write-back of line into the
// write-combining buffer instead of charging it. A line already buffered
// is merged (its charge is eliminated); hitting the line bound drains the
// charges but keeps the epoch open. The dedup scan is linear over at most
// MaxLines int entries — a few cache lines of indices, like the small
// write-combining structures it models.
func (ctx *ThreadCtx) deferPWB(line int) {
	ctx.pwbsDeferred.Add(1)
	for _, l := range ctx.wcLines {
		if l == line {
			ctx.pwbsMerged.Add(1)
			return
		}
	}
	ctx.wcLines = append(ctx.wcLines, line)
	if len(ctx.wcLines) >= ctx.batchCfg.MaxLines {
		ctx.drainWC(false)
	}
}

// recordWCLine is the ModeStrict twin of deferPWB: pure bookkeeping (the
// write-back was already captured into the pending queue at the usual
// record point), tracking the merge opportunity the fast-mode cost model
// would realize. No charge exists in strict mode, so no bound triggers a
// charge drain; the buffer is reset at every psync (strict psyncs always
// retain their semantics) and by EndBatch/Retire.
func (ctx *ThreadCtx) recordWCLine(line int) {
	ctx.pwbsDeferred.Add(1)
	for _, l := range ctx.wcLines {
		if l == line {
			ctx.pwbsMerged.Add(1)
			return
		}
	}
	ctx.wcLines = append(ctx.wcLines, line)
}

// deferPSync defers a fast-mode psync into the epoch's group sync and
// drains the epoch when the op bound is reached.
func (ctx *ThreadCtx) deferPSync() {
	ctx.wcOps++
	if ctx.wcOps >= ctx.batchCfg.MaxOps {
		ctx.drainWC(true)
	}
}

// drainWC executes the deferred persistence work of the open epoch. In
// ModeFast each distinct buffered line is charged once (the write-combined
// flush) and, when sync is set and psyncs were deferred, one group sync
// executes for all of them. In ModeStrict nothing was deferred, so the
// drain only resets the bookkeeping. The epoch stays open (only EndBatch
// and Retire close it); bounds-triggered drains reuse it.
func (ctx *ThreadCtx) drainWC(sync bool) {
	p := ctx.pool
	if len(ctx.wcLines) == 0 && ctx.wcOps == 0 {
		return
	}
	ctx.batchDrains.Add(1)
	stall := 0
	if p.mode == ModeFast {
		for _, l := range ctx.wcLines {
			stall += ctx.chargePWB(l)
		}
	}
	ctx.wcLines = ctx.wcLines[:0]
	// An ambient epoch whose policy has been removed closes at its next
	// drain instead of living until retire.
	if ctx.autoOpened && ctx.batchDepth == 1 && !ctx.autoBatch.Active() {
		ctx.batchDepth = 0
		ctx.autoOpened = false
	}
	if !sync || ctx.wcOps == 0 {
		return
	}
	merged := ctx.wcOps - 1
	ctx.wcOps = 0
	if merged > 0 {
		ctx.psyncsMerged.Add(uint64(merged))
	}
	if p.mode == ModeFast && p.psyncEnabled.Load() {
		ctx.psyncs.Add(1)
		spin(p.cost.PSyncCost)
		ctx.spun.Add(uint64(p.cost.PSyncCost))
		if ctx.sink != nil {
			ctx.telePSync(int64(stall+p.cost.PSyncCost), 0)
		}
	}
}
