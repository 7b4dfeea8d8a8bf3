package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/pmem"
	"repro/internal/redolog"
	"repro/internal/romulus"
	"repro/internal/rqueue"
	"repro/internal/rstack"
)

// Single-thread structure commit paths: the redolog combiner, the Romulus
// transaction commit and the recoverable queue and stack op loops, each
// on a fresh fast-mode pool. BenchmarkCommitPath times them and
// TestCommitPathCountsGolden pins what they flush; both build them with
// the same setup funcs.

// commitKeys keeps the commit-path structures small and the op mix an
// even insert/delete split, so the cost measured is the commit protocol,
// not the traversal.
const commitKeys = 128

// batchOps is the op count of each fresh structure a benchmark times and
// of each commit-path golden run. The structures never reclaim nodes, so
// one pool cannot hold an unbounded b.N.
const batchOps = 20_000

// commitPath is one commit path and its golden counts over batchOps ops.
type commitPath struct {
	name         string
	setup        func(p *pmem.Pool, ctx *pmem.ThreadCtx) func(i int)
	pwbs, psyncs uint64
}

var commitPaths = []commitPath{
	{"redolog", setupRedologCommit, 85099, 40009},
	{"romulus", setupRomulusCommit, 120160, 60000},
	{"rqueue", setupRQueueOps, 174945, 80000},
	{"rstack", setupRStackOps, 180190, 80000},
}

// start builds the path on a fresh pool and returns it with a func that
// runs the path's first n ops on thread 1.
func (c commitPath) start() (*pmem.Pool, func(n int)) {
	p := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 21, MaxThreads: 2})
	body := c.setup(p, p.NewThread(1))
	return p, func(n int) {
		for i := 0; i < n; i++ {
			body(i)
		}
	}
}

// benchBatches times b.N ops in runs of at most batchOps, each on a
// structure that start builds outside the timer, and reports the executed
// pwbs and psyncs per op.
func benchBatches(b *testing.B, start func() (*pmem.Pool, func(n int))) {
	var pwbs, psyncs uint64
	for done := 0; done < b.N; done += batchOps {
		b.StopTimer()
		p, run := start()
		base := p.Snapshot()
		b.StartTimer()
		run(min(batchOps, b.N-done))
		b.StopTimer()
		st := p.Snapshot().Sub(base)
		pwbs += st.PWBs
		psyncs += st.PSyncs
	}
	b.ReportMetric(float64(pwbs)/float64(b.N), "pwbs/op")
	b.ReportMetric(float64(psyncs)/float64(b.N), "psyncs/op")
}

// BenchmarkCommitPath times each commit path at one goroutine.
func BenchmarkCommitPath(b *testing.B) {
	for _, c := range commitPaths {
		b.Run(c.name, func(b *testing.B) { benchBatches(b, c.start) })
	}
}

// TestCommitPathCountsGolden pins the pwbs and psyncs each commit path
// executes over batchOps single-thread fast-mode ops. One thread makes
// the counts exact, so a change to what a commit protocol flushes moves
// them. On a failure it logs the measured table as Go rows, ready to
// paste.
func TestCommitPathCountsGolden(t *testing.T) {
	var rows []string
	defer logRows(t, &rows)
	for _, c := range commitPaths {
		p, run := c.start()
		base := p.Snapshot()
		run(batchOps)
		st := p.Snapshot().Sub(base)
		setup := runtime.FuncForPC(reflect.ValueOf(c.setup).Pointer()).Name()
		rows = append(rows, fmt.Sprintf("{%q, %s, %d, %d},",
			c.name, setup[strings.LastIndexByte(setup, '.')+1:], st.PWBs, st.PSyncs))
		if st.PWBs != c.pwbs || st.PSyncs != c.psyncs {
			t.Errorf("%s: %d pwbs, %d psyncs; golden %d, %d", c.name, st.PWBs, st.PSyncs, c.pwbs, c.psyncs)
		}
	}
}

func setupRedologCommit(p *pmem.Pool, ctx *pmem.ThreadCtx) func(i int) {
	s := redolog.New(p, 4096, 2, 0)
	h := s.Handle(ctx)
	return func(i int) {
		k := int64(i % commitKeys)
		if i&1 == 0 {
			h.Insert(k)
		} else {
			h.Delete(k)
		}
	}
}

func setupRomulusCommit(p *pmem.Pool, ctx *pmem.ThreadCtx) func(i int) {
	tm := romulus.NewTM(p, 1<<16, 2, 0)
	l := romulus.NewList(tm, p.NewThread(0))
	return func(i int) {
		k := int64(i % commitKeys)
		seq := tm.Invoke(ctx)
		if i&1 == 0 {
			l.Insert(ctx, seq, k)
		} else {
			l.Delete(ctx, seq, k)
		}
	}
}

func setupRQueueOps(p *pmem.Pool, ctx *pmem.ThreadCtx) func(i int) {
	q := rqueue.New(p, 2, 0)
	h := q.Handle(ctx)
	return func(i int) {
		if i&1 == 0 {
			h.Enqueue(uint64(i))
		} else {
			h.Dequeue()
		}
	}
}

func setupRStackOps(p *pmem.Pool, ctx *pmem.ThreadCtx) func(i int) {
	s := rstack.New(p, 2, 0)
	h := s.Handle(ctx)
	return func(i int) {
		if i&1 == 0 {
			h.Push(uint64(i))
		} else {
			h.Pop()
		}
	}
}
