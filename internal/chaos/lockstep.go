package chaos

import (
	"sync"

	"repro/internal/pmem"
)

// lockstep serializes a Schedule's worker threads into one reproducible
// interleaving. Exactly one worker runs at a time; it passes the turn to
// the next live worker, in thread-id rotation, at each of its persistence
// instructions (PWB, PFence, PSync) and spin-wait hints (pmem.ThreadCtx.Pause)
// and when it leaves the round. Shared memory therefore changes only at
// points of the simulated program, never at points of the Go scheduler, so
// a multi-threaded workload replays identically from the same seed — its
// site profile, the k-th hit of every site and the pool state at that hit
// included. The rotation puts another thread's step between any two
// persistence instructions of a thread, so the threads still race inside
// every publish/CAS window that contains one.
//
// lockstep is a pmem.TelemetrySink: the pool reports the scheduling points
// from inside the worker's own persistence instruction, and every callback
// is forwarded to the inner sink.
type lockstep struct {
	inner pmem.TelemetrySink

	mu      sync.Mutex
	cond    sync.Cond
	running bool   // a round is in progress
	turn    int    // index of the worker allowed to run
	live    []bool // workers that have not left the round
}

func newLockstep(inner pmem.TelemetrySink) *lockstep {
	l := &lockstep{inner: inner}
	l.cond.L = &l.mu
	return l
}

// begin opens a round of n workers; worker 0 (thread id 1) runs first.
func (l *lockstep) begin(n int) {
	l.mu.Lock()
	l.running, l.turn, l.live = true, 0, make([]bool, n)
	for i := range l.live {
		l.live[i] = true
	}
	l.mu.Unlock()
}

// end closes the round: scheduling points outside a round (setup, crash
// recovery and validation run on the harness goroutine) do not block.
func (l *lockstep) end() {
	l.mu.Lock()
	l.running = false
	l.mu.Unlock()
}

// enter blocks worker w until it holds the turn.
func (l *lockstep) enter(w int) {
	l.mu.Lock()
	for l.turn != w {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// exit takes worker w out of the rotation and hands the turn on.
func (l *lockstep) exit(w int) {
	l.mu.Lock()
	l.live[w] = false
	l.pass(w)
	l.mu.Unlock()
}

// yield is the scheduling point of thread tid: it hands the turn to the
// next live worker and blocks until the rotation comes back. Thread ids
// that are not workers of the open round are ignored.
func (l *lockstep) yield(tid int) {
	w := tid - 1
	l.mu.Lock()
	if l.running && w >= 0 && w < len(l.live) && l.live[w] {
		l.pass(w)
		for l.turn != w {
			l.cond.Wait()
		}
	}
	l.mu.Unlock()
}

// pass gives the turn to the first live worker after w in rotation order
// (w itself when it is the only one left). Called with mu held.
func (l *lockstep) pass(w int) {
	n := len(l.live)
	for i := 1; i <= n; i++ {
		if j := (w + i) % n; l.live[j] {
			l.turn = j
			l.cond.Broadcast()
			return
		}
	}
}

func (l *lockstep) TelemetryPWB(tid int, s pmem.Site, stallUnits int64) {
	if l.inner != nil {
		l.inner.TelemetryPWB(tid, s, stallUnits)
	}
	l.yield(tid)
}

func (l *lockstep) TelemetryPSync(tid int, stallUnits, stallNs int64, pending []pmem.SiteStall) {
	if l.inner != nil {
		l.inner.TelemetryPSync(tid, stallUnits, stallNs, pending)
	}
	l.yield(tid)
}

func (l *lockstep) TelemetryPFence(tid int) {
	if l.inner != nil {
		l.inner.TelemetryPFence(tid)
	}
	l.yield(tid)
}

func (l *lockstep) TelemetryEvent(kind pmem.TelemetryEventKind, tid int, s pmem.Site, arg uint64) {
	if l.inner != nil {
		l.inner.TelemetryEvent(kind, tid, s, arg)
	}
	if kind == pmem.EventPause {
		l.yield(tid)
	}
}
