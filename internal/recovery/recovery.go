// Package recovery is the parallel post-crash recovery engine: it deals
// the read-mostly phases of recovery — structure re-attach, the
// allocator's mark and bitmap rebuild, per-thread recovery-function
// replay, and invariant verification — across a bounded pool of workers,
// each with its own pmem.ThreadCtx (a ThreadCtx is single-threaded by
// contract).
//
// The engine exploits two independence properties of the paper's model
// (Attiya et al., PPoPP 2022): recovery is offline (no application thread
// mutates the structure while it runs), so read-only partitions of a
// structure can be scanned concurrently without synchronization; and every
// thread executes at most one recoverable operation at a time, so the
// per-thread recovery functions are mutually independent and can be
// replayed concurrently.
//
// A recovery body is written once, against a Loop: Engine.Loop deals it
// across the engine's workers with For, and Inline runs it on the
// caller's own thread context. kvstore.Recover deals its shards with For,
// one shard per item, and repairs each shard with the inline bodies of
// rhash and rmm on the worker's context; the static deal keeps the durable
// result identical for every worker count. rmm.AttachParallel,
// RecoverGCParallel, InUseParallel and rhash.AttachParallel and
// CheckInvariantsParallel run the same bodies on Engine.Loop; the frozen
// end-to-end benchmark's recovery ladder is their caller.
//
// Phase durations and per-worker item counts are accumulated per engine
// and read back with Stats.
package recovery

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pmem"
)

// Phase names one stage of post-crash recovery, for timing attribution.
type Phase int

// The recovery phases, in their canonical execution order.
const (
	// PhaseAttach is structure re-attach: rebuilding volatile views (bucket
	// tables, handles) from persistent headers after pool recovery.
	PhaseAttach Phase = iota
	// PhaseGCMark is rmm.RecoverGCParallel: the mark shards plus the
	// bitmap rebuild.
	PhaseGCMark
	// PhaseReplay is the replay of per-thread recovery functions.
	PhaseReplay
	// PhaseVerify is post-recovery invariant checking.
	PhaseVerify
	numPhases
)

// String names the phase as it appears in the Stats map.
func (p Phase) String() string {
	switch p {
	case PhaseAttach:
		return "attach"
	case PhaseGCMark:
		return "gc-mark"
	case PhaseReplay:
		return "replay"
	case PhaseVerify:
		return "verify"
	default:
		return "unknown"
	}
}

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of worker goroutines (and thread contexts) a
	// phase fans out over; 0 picks min(GOMAXPROCS, 8), 1 runs phases
	// inline on a single fresh context.
	Workers int
	// BaseTID is the first pmem thread id the engine's worker contexts
	// use. It must be disjoint from the ids of application threads that
	// run while the engine does. Recovery in the paper's model is
	// offline — no application thread runs — so kvstore.Recover uses 0;
	// thread ids only surface in telemetry shards and writer tracking, so
	// small ids are preferred over large sentinels.
	BaseTID int
}

// Engine is a bounded-worker parallel recovery engine. An Engine is cheap
// (workers are spawned per phase, not kept resident) and safe for reuse
// across crash/recover cycles: worker thread contexts are created fresh
// for every phase, never cached across a crash.
type Engine struct {
	workers int
	baseTID int

	mu      sync.Mutex
	timings [numPhases]time.Duration
	items   [numPhases]int64
	span    [numPhases]int64
}

// PhaseStats is the accumulated work accounting of one phase.
type PhaseStats struct {
	// WallNs is the phase's accumulated host wall-clock time.
	WallNs int64
	// Items is the total number of work items the phase processed.
	Items int64
	// SpanItems is the accumulated critical-path share: for each phase
	// execution, the largest number of items any single worker processed.
	// On a host with at least Workers idle cores the phase's wall clock is
	// proportional to SpanItems, so SpanItems/Items is the share of the
	// one-worker wall clock such a host would see.
	SpanItems int64
}

// New builds an engine from cfg.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if w > 8 {
			w = 8
		}
	}
	return &Engine{workers: w, baseTID: cfg.BaseTID}
}

// Workers returns the engine's worker count.
func (e *Engine) Workers() int { return e.workers }

// BaseTID returns the first thread id the engine's worker contexts use.
func (e *Engine) BaseTID() int { return e.baseTID }

// record folds one phase execution into the phase's accumulated wall
// clock and work accounting, given each worker's item count.
func (e *Engine) record(p Phase, d time.Duration, counts []int64) {
	var total, span int64
	for _, c := range counts {
		total += c
		span = max(span, c)
	}
	e.mu.Lock()
	e.timings[p] += d
	e.items[p] += total
	e.span[p] += span
	e.mu.Unlock()
}

// Stats returns the accumulated work accounting of every phase the engine
// has executed, keyed by phase name.
func (e *Engine) Stats() map[string]PhaseStats {
	out := make(map[string]PhaseStats, numPhases)
	e.mu.Lock()
	for p := Phase(0); p < numPhases; p++ {
		if e.timings[p] > 0 || e.items[p] > 0 {
			out[p.String()] = PhaseStats{
				WallNs:    e.timings[p].Nanoseconds(),
				Items:     e.items[p],
				SpanItems: e.span[p],
			}
		}
	}
	e.mu.Unlock()
	return out
}

// ResetTimings clears the accumulated phase durations and work accounting
// (benchmark trials reuse one engine across repetitions).
func (e *Engine) ResetTimings() {
	e.mu.Lock()
	e.timings = [numPhases]time.Duration{}
	e.items = [numPhases]int64{}
	e.span = [numPhases]int64{}
	e.mu.Unlock()
}

// runSafe invokes body, converting a panic into an error: pmem.ErrCrashed
// propagates as itself (a crash fired while a worker touched the pool);
// anything else is wrapped so one corrupt structure fails the phase
// instead of the whole process.
func runSafe(worker int, body func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(error); ok && errors.Is(re, pmem.ErrCrashed) {
				err = re
				return
			}
			err = fmt.Errorf("recovery: worker %d panicked: %v", worker, r)
		}
	}()
	return body()
}

// parallelDo runs body(w) on one goroutine per entry of counts, where
// worker w counts its items, records the phase's wall clock and counts,
// and returns the first error. One worker or none runs inline.
func (e *Engine) parallelDo(phase Phase, counts []int64, body func(w int) error) error {
	start := time.Now()
	defer func() { e.record(phase, time.Since(start), counts) }()
	nWorkers := len(counts)
	if nWorkers <= 1 {
		return runSafe(0, func() error { return body(0) })
	}
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := runSafe(w, func() error { return body(w) }); err != nil {
				firstErr.CompareAndSwap(nil, &err)
			}
		}(w)
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// For runs fn(ctx, i) for every i in [0, n), partitioned across the
// engine's workers; each worker calls fn with its own fresh thread context
// on pool. When finish is non-nil it runs once per worker after the
// worker's last item (e.g. a trailing PSync for workers that issued
// write-backs). The first error stops the distribution of further chunks
// and is returned.
//
// Partitioning is static: the index range is cut into fixed-size chunks
// dealt round-robin to workers, so the worker→index map is a pure function
// of (n, Workers). Dynamic (counter- or queue-based) distribution would
// balance marginally better on a dedicated multicore, but on a time-shared
// host the observed split then measures the Go scheduler rather than the
// algorithm, which would poison the Items/SpanItems work accounting; the
// static deal keeps both the recovery outcome and the accounting
// deterministic.
func (e *Engine) For(pool *pmem.Pool, phase Phase, n int, fn func(ctx *pmem.ThreadCtx, i int) error, finish func(ctx *pmem.ThreadCtx) error) error {
	w := min(e.workers, n)
	if n <= 0 {
		return e.parallelDo(phase, nil, func(int) error { return nil })
	}
	chunk := n / (w * 4)
	if chunk < 1 {
		chunk = 1
	}
	var failed atomic.Bool
	counts := make([]int64, w)
	return e.parallelDo(phase, counts, func(wk int) error {
		ctx := pool.NewThread(e.baseTID + wk)
		for c := wk; !failed.Load(); c += w {
			lo := c * chunk
			if lo >= n {
				break
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				if err := fn(ctx, i); err != nil {
					failed.Store(true)
					return err
				}
				counts[wk]++
			}
		}
		if finish != nil {
			return finish(ctx)
		}
		return nil
	})
}

// Loop runs fn(ctx, i) for every i in [0, n), then finish(ctx) once per
// thread context it ran fn on (finish may be nil), and returns the first
// error. It is the one seam a recovery body is written against: the same
// body runs inline (Inline) or dealt across workers (Engine.Loop), so the
// two cannot drift apart.
type Loop func(n int, fn func(ctx *pmem.ThreadCtx, i int) error, finish func(ctx *pmem.ThreadCtx) error) error

// Loop returns the Loop that runs each call as one For over pool, timed
// and counted under phase.
func (e *Engine) Loop(pool *pmem.Pool, phase Phase) Loop {
	return func(n int, fn func(*pmem.ThreadCtx, int) error, finish func(*pmem.ThreadCtx) error) error {
		return e.For(pool, phase, n, fn, finish)
	}
}

// Inline returns the Loop that runs in the caller's goroutine on ctx: no
// worker, no new thread context and no timing, so it is safe inside an
// engine worker (kvstore recovers each shard with inline bodies on its
// worker's context). A panic is not converted to an error.
func Inline(ctx *pmem.ThreadCtx) Loop {
	return func(n int, fn func(*pmem.ThreadCtx, int) error, finish func(*pmem.ThreadCtx) error) error {
		for i := 0; i < n; i++ {
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		if finish != nil && n > 0 {
			return finish(ctx)
		}
		return nil
	}
}

// ReplayThreads runs fn(tid) for every resurrected thread id in [0, n)
// across the engine's workers, statically strided (worker wk replays tids
// wk, wk+W, ...) for the same determinism reasons as For. Per the
// one-operation-per-thread model each thread's recovery function touches
// only its own CP/RD pair (plus helping CASes that are idempotent by
// design), so the replays are independent. Unlike For, fn receives the
// thread id rather than an engine context: a recovery function runs on the
// resurrected thread's own rebuilt context.
func (e *Engine) ReplayThreads(n int, fn func(tid int) error) error {
	w := min(e.workers, n)
	if n <= 0 {
		return e.parallelDo(PhaseReplay, nil, func(int) error { return nil })
	}
	var failed atomic.Bool
	counts := make([]int64, w)
	return e.parallelDo(PhaseReplay, counts, func(wk int) error {
		for tid := wk; tid < n && !failed.Load(); tid += w {
			if err := fn(tid); err != nil {
				failed.Store(true)
				return err
			}
			counts[wk]++
		}
		return nil
	})
}
