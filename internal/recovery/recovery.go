// Package recovery is the parallel post-crash recovery engine: it fans the
// read-mostly phases of recovery — structure re-attach, RecoverGC's mark
// and bitmap rebuild, per-thread recovery-function replay, and invariant
// verification — across a bounded pool of workers, each with its own
// pmem.ThreadCtx (a ThreadCtx is single-threaded by contract).
//
// The engine exploits two independence properties of the paper's model
// (Attiya et al., PPoPP 2022): recovery is offline (no application thread
// mutates the structure while it runs), so read-only partitions of a
// structure can be scanned concurrently without synchronization; and every
// thread executes at most one recoverable operation at a time, so the
// per-thread recovery functions are mutually independent and can be
// replayed concurrently.
//
// kvstore.Recover is the engine's heaviest client: every store restart
// deals its shards across min(GOMAXPROCS, shards, MaxThreads) workers with
// For, one shard per item, and the static deal keeps the durable result
// identical for every worker count. The allocator's parallel twins
// (rmm.AttachParallel, RecoverGCParallel over per-worker splice lists with
// a deterministic merge, InUseParallel) and rhash.AttachParallel are
// called only by the frozen end-to-end benchmark's recovery ladder.
//
// Phase durations are accumulated per engine and, when a telemetry
// registry is attached, recorded as latency histogram entries under the
// recovery-* operation classes of the repro-telemetry/1 snapshot schema.
package recovery

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pmem"
	"repro/internal/telemetry"
)

// Phase names one stage of post-crash recovery, for timing attribution.
type Phase int

// The recovery phases, in their canonical execution order.
const (
	// PhaseAttach is structure re-attach: rebuilding volatile views (bucket
	// tables, handles) from persistent headers after pool recovery.
	PhaseAttach Phase = iota
	// PhaseGCMark is rmm.RecoverGCParallel: the concurrent reachability
	// mark plus the bitmap rebuild.
	PhaseGCMark
	// PhaseReplay is the replay of per-thread recovery functions.
	PhaseReplay
	// PhaseVerify is post-recovery invariant checking.
	PhaseVerify
	numPhases
)

// String names the phase as it appears in timing maps and telemetry.
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

// op maps the phase to its telemetry operation class.
func (p Phase) op() telemetry.Op {
	switch p {
	case PhaseAttach:
		return telemetry.OpRecoveryAttach
	case PhaseGCMark:
		return telemetry.OpRecoveryGCMark
	case PhaseReplay:
		return telemetry.OpRecoveryReplay
	default:
		return telemetry.OpRecoveryVerify
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
	// Telemetry, when non-nil, receives one latency record per executed
	// phase under the matching recovery-* operation class.
	Telemetry *telemetry.Registry
}

// Engine is a bounded-worker parallel recovery engine. An Engine is cheap
// (workers are spawned per phase, not kept resident) and safe for reuse
// across crash/recover cycles: worker thread contexts are created fresh
// for every phase, never cached across a crash.
type Engine struct {
	workers int
	baseTID int
	reg     *telemetry.Registry

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
	// proportional to SpanItems; on a smaller host, WallNs(1 worker) *
	// SpanItems / Items models the wall clock such a host would see. The
	// recovery benchmark uses exactly that identity.
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
	return &Engine{workers: w, baseTID: cfg.BaseTID, reg: cfg.Telemetry}
}

// Workers returns the engine's worker count.
func (e *Engine) Workers() int { return e.workers }

// BaseTID returns the first thread id the engine's worker contexts use.
func (e *Engine) BaseTID() int { return e.baseTID }

// observe accumulates a phase duration and forwards it to telemetry.
func (e *Engine) observe(p Phase, d time.Duration) {
	e.mu.Lock()
	e.timings[p] += d
	e.mu.Unlock()
	if e.reg != nil {
		e.reg.RecordOp(0, p.op(), d.Nanoseconds())
	}
}

// recordStats folds one execution's per-worker item counts into the
// phase's accumulated work accounting.
func (e *Engine) recordStats(p Phase, counts []int64) {
	var total, span int64
	for _, c := range counts {
		total += c
		if c > span {
			span = c
		}
	}
	e.mu.Lock()
	e.items[p] += total
	e.span[p] += span
	e.mu.Unlock()
}

// Timings returns the accumulated wall-clock duration of every phase the
// engine has executed, keyed by phase name.
func (e *Engine) Timings() map[string]time.Duration {
	out := make(map[string]time.Duration, numPhases)
	e.mu.Lock()
	for p := Phase(0); p < numPhases; p++ {
		if e.timings[p] > 0 {
			out[p.String()] = e.timings[p]
		}
	}
	e.mu.Unlock()
	return out
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

// parallelDo runs body(w) on nWorkers goroutines under the phase's timer
// and returns the first error. nWorkers <= 1 runs inline.
func (e *Engine) parallelDo(phase Phase, nWorkers int, body func(w int) error) error {
	start := time.Now()
	defer func() { e.observe(phase, time.Since(start)) }()
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
	w := e.workers
	if w > n {
		w = n
	}
	if n <= 0 {
		return e.parallelDo(phase, 0, func(int) error { return nil })
	}
	chunk := n / (w * 4)
	if chunk < 1 {
		chunk = 1
	}
	var failed atomic.Bool
	counts := make([]int64, w)
	err := e.parallelDo(phase, w, func(wk int) error {
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
	e.recordStats(phase, counts)
	return err
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
	w := e.workers
	if w > n {
		w = n
	}
	if n <= 0 {
		return e.parallelDo(PhaseReplay, 0, func(int) error { return nil })
	}
	var failed atomic.Bool
	counts := make([]int64, w)
	err := e.parallelDo(PhaseReplay, w, func(wk int) error {
		for tid := wk; tid < n && !failed.Load(); tid += w {
			if err := fn(tid); err != nil {
				failed.Store(true)
				return err
			}
			counts[wk]++
		}
		return nil
	})
	e.recordStats(PhaseReplay, counts)
	return err
}

// TaskFunc is one unit of work in a RunTasks queue. Tasks may spawn
// further tasks through their worker, which is how a traversal exposes
// newly discovered work (the GC mark's visit queue).
type TaskFunc func(w *Worker) error

// Worker is a RunTasks worker: its identity, its private thread context,
// and the spawn half of the shared queue.
type Worker struct {
	// ID is the worker's index in [0, Engine.Workers()).
	ID int
	// Ctx is the worker's private thread context on the phase's pool.
	Ctx *pmem.ThreadCtx
	q   *taskQueue
}

// Spawn enqueues another task on the shared queue; an idle worker (any
// worker, not necessarily this one) steals and runs it.
func (w *Worker) Spawn(t TaskFunc) { w.q.push(t) }

// taskQueue is the shared LIFO work queue of one RunTasks call. LIFO keeps
// a spawning worker's freshly discovered work hot, while idle workers
// steal whatever is pending.
type taskQueue struct {
	mu          sync.Mutex
	cond        *sync.Cond
	tasks       []TaskFunc
	outstanding int // pushed but not yet completed
	stopped     bool
}

func newTaskQueue(initial []TaskFunc) *taskQueue {
	q := &taskQueue{tasks: append([]TaskFunc(nil), initial...)}
	q.outstanding = len(initial)
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *taskQueue) push(t TaskFunc) {
	q.mu.Lock()
	q.tasks = append(q.tasks, t)
	q.outstanding++
	q.cond.Signal()
	q.mu.Unlock()
}

// pop blocks until a task is available or the queue drains (every pushed
// task completed) or stops (a worker failed); ok is false in the latter
// two cases.
func (q *taskQueue) pop() (TaskFunc, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.stopped {
			return nil, false
		}
		if n := len(q.tasks); n > 0 {
			t := q.tasks[n-1]
			q.tasks = q.tasks[:n-1]
			return t, true
		}
		if q.outstanding == 0 {
			return nil, false
		}
		q.cond.Wait()
	}
}

// done marks one popped task complete; the final completion wakes all
// waiters so they can observe the drained queue.
func (q *taskQueue) done() {
	q.mu.Lock()
	q.outstanding--
	if q.outstanding == 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// stop aborts the queue after a worker error.
func (q *taskQueue) stop() {
	q.mu.Lock()
	q.stopped = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// RunTasks drains a spawning work queue seeded with the initial tasks
// across the engine's workers, each with its own fresh thread context on
// pool. It returns when every task (including spawned ones) has completed,
// or on the first task error.
//
// Work accounting: the queue is greedy — no worker idles while a task is
// pending — so for T roughly uniform tasks its span on a dedicated
// multicore is ceil(T/W). RunTasks records that bound as the phase's
// SpanItems rather than the observed per-worker split, which on a
// time-shared host reflects the Go scheduler's quanta, not the queue.
func (e *Engine) RunTasks(pool *pmem.Pool, phase Phase, initial []TaskFunc) error {
	if len(initial) == 0 {
		return e.parallelDo(phase, 0, func(int) error { return nil })
	}
	// Unlike For, the worker count is not capped at the seed count: a
	// single seed may spawn a whole traversal's worth of tasks, and a
	// worker that finds the queue empty blocks on the queue's cond until
	// work appears or the queue drains, which costs nothing.
	w := e.workers
	q := newTaskQueue(initial)
	var executed atomic.Int64
	err := e.parallelDo(phase, w, func(wk int) error {
		worker := &Worker{ID: wk, Ctx: pool.NewThread(e.baseTID + wk), q: q}
		for {
			t, ok := q.pop()
			if !ok {
				return nil
			}
			err := runSafe(wk, func() error { return t(worker) })
			q.done()
			if err != nil {
				q.stop()
				return err
			}
			executed.Add(1)
		}
	})
	total := executed.Load()
	e.mu.Lock()
	e.items[phase] += total
	e.span[phase] += (total + int64(w) - 1) / int64(w)
	e.mu.Unlock()
	return err
}
