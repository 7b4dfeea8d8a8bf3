package sweep

// This file reaches the pwb sites that no profiled workload can: the
// tracking engine's backtrack path runs only when a thread's tagging CAS
// fails at AffectSet index >= 1, i.e. after it already tagged a prefix and
// then found a later entry tagged by a *different* descriptor. That needs
// two operations frozen mid-flight at exact persist points, which random
// scheduling on a small machine essentially never produces — so the sweep
// scripts it deterministically with the crash machinery itself:
//
//  1. Act one: operation A (a two-entry-AffectSet update) is crashed at
//     its Publish's checkpoint persist — descriptor published and durable,
//     nothing tagged.
//  2. Act two: operation B, whose *first* AffectSet entry is A's *second*,
//     is crashed at its first tagging persist — B's tag is durably in
//     place on A's second node.
//  3. Act three: A's recovery helps its own descriptor: it re-tags its
//     first node, finds B's foreign tag on the second, and must backtrack
//     — executing the pwb-info-backtrack site, where the sweep's target
//     crash is armed.
//
// The final act is idempotent: recovery after the target crash replays it
// (helping B's operation along the way), so the scenario converges to one
// deterministic final state regardless of the adversary, which the
// scenario validates exactly.
//
// A fourth act (actReadOnlyAfterBacktrack) then drives the read-path
// corner of the same conflict in a live operation: an update publishes an
// attempt, backtracks, and resolves read-only on its retry, so it returns
// with CP = 1 and RD naming the failed attempt; a crash strikes just before
// that response is delivered, and the recovery function must re-execute
// the operation.

// Both key off Publish, not BeginOp: the engine's pwb-RD site records the
// checkpoint persist of Publish, and under tracking.Default BeginOp persists
// nothing, so an operation's publishHit-th write-back at that site is its
// first Publish.

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/pmem"
	"repro/internal/rbst"
	"repro/internal/rhash"
	"repro/internal/rlist"
	"repro/internal/rqueue"
	"repro/internal/rstack"
)

// publishHit is the hit index, at an engine's pwb-RD site, of an
// operation's first Publish.
const publishHit = 1

// Provoker drives one scripted crash scenario: staging crashes that freeze
// operations at exact persist points (always committed in full, so the
// staged state is durable), then the target crash at the task's site under
// the task's adversary, chained to the task's depth.
type Provoker struct {
	pool    *pmem.Pool
	sink    pmem.TelemetrySink // the task's telemetry registry, if any
	site    string
	hit     int64
	depth   int
	policy  func() pmem.CrashPolicy
	fired   int
	crashes int
	err     error
}

// runParked runs f and reports whether it parked on an injected crash.
func runParked(f func()) (parked bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != pmem.ErrCrashed {
				panic(r)
			}
			parked = true
		}
	}()
	f()
	return false
}

// Stage arms a one-shot crash at the k-th executed PWB of the named site,
// runs act — which must park on that crash — then commits every scheduled
// write-back and dirty line and recovers the pool: act's operation is
// frozen at that persist point with all its progress durable.
func (p *Provoker) Stage(site string, k int64, act func() error) error {
	if p.err != nil {
		return p.err
	}
	p.pool.SetCrashAtSite(p.pool.RegisterSite(site), k)
	var actErr error
	if !runParked(func() { actErr = act() }) {
		p.pool.SetCrashAtSite(pmem.NoSite, 0)
		if actErr == nil {
			actErr = fmt.Errorf("sweep: staging act never executed site %s", site)
		}
		p.err = actErr
		return p.err
	}
	p.pool.Crash(pmem.CrashPolicy{CommitAll: true})
	p.pool.Recover()
	p.crashes++
	return nil
}

// Target arms the task's target site at its hit index and runs act to
// completion, crashing with the task's adversary each time the site fires
// and re-running act after recovery, re-arming the first re-execution once
// per extra depth level. act must be an idempotent recovery step that
// reattaches its own handles.
func (p *Provoker) Target(act func() error) error {
	if p.err != nil {
		return p.err
	}
	site := p.pool.RegisterSite(p.site)
	arms := []int64{p.hit}
	for d := 1; d < p.depth; d++ {
		arms = append(arms, 1)
	}
	armed := 0
	for round := 0; ; round++ {
		if round > p.depth+1 {
			p.err = fmt.Errorf("sweep: runaway provocation rounds at site %s", p.site)
			return p.err
		}
		if armed < len(arms) {
			p.pool.SetCrashAtSite(site, arms[armed])
			armed++
		}
		var actErr error
		if !runParked(func() { actErr = act() }) {
			p.pool.SetCrashAtSite(pmem.NoSite, 0)
			if actErr != nil {
				p.err = actErr
			}
			return actErr
		}
		p.fired++
		p.pool.Crash(p.policy())
		p.pool.Recover()
		p.crashes++
	}
}

// hook is one interleaving point of Provoker.interleave: the k-th
// write-back of site recorded by the interleaved thread runs act.
type hook struct {
	site string
	k    int64
	act  func()
}

// hookSink forwards every telemetry event to the task's registry and runs
// each hook once, synchronously, when thread tid records the hook's k-th
// write-back of its site.
type hookSink struct {
	inner pmem.TelemetrySink
	tid   int
	sites []pmem.Site
	left  []int64
	hooks []hook
}

func (s *hookSink) TelemetryPWB(tid int, site pmem.Site, stall int64) {
	if s.inner != nil {
		s.inner.TelemetryPWB(tid, site, stall)
	}
	if tid != s.tid {
		return
	}
	for i, hs := range s.sites {
		if hs == site {
			if s.left[i]--; s.left[i] == 0 {
				s.hooks[i].act()
			}
		}
	}
}

func (s *hookSink) TelemetryPSync(tid int, stallUnits, stallNs int64, pending []pmem.SiteStall) {
	if s.inner != nil {
		s.inner.TelemetryPSync(tid, stallUnits, stallNs, pending)
	}
}

func (s *hookSink) TelemetryPFence(tid int) {
	if s.inner != nil {
		s.inner.TelemetryPFence(tid)
	}
}

func (s *hookSink) TelemetryEvent(kind pmem.TelemetryEventKind, tid int, site pmem.Site, arg uint64) {
	if s.inner != nil {
		s.inner.TelemetryEvent(kind, tid, site, arg)
	}
}

// interleave runs act with hooks armed on thread tid: each hook fires
// once, synchronously, the moment tid records the hook's k-th write-back
// of its site — from inside that persist instruction, so the hook's
// operations land between two instructions of the running operation,
// deterministically. act must not crash; every hook must fire.
func (p *Provoker) interleave(tid int, hooks []hook, act func() error) error {
	if p.err != nil {
		return p.err
	}
	s := &hookSink{inner: p.sink, tid: tid, hooks: hooks}
	for _, h := range hooks {
		s.sites = append(s.sites, p.pool.RegisterSite(h.site))
		s.left = append(s.left, h.k)
	}
	p.pool.SetTelemetrySink(s)
	err := act()
	p.pool.SetTelemetrySink(p.sink)
	for i, h := range hooks {
		if err == nil && s.left[i] > 0 {
			err = fmt.Errorf("sweep: interleaved thread %d never executed site %s %d times", tid, h.site, h.k)
		}
	}
	p.err = err
	return err
}

// crashNow crashes the pool at this instant under the task's adversary and
// recovers it: the crash that strikes an operation after its last pool
// access but before its response is delivered.
func (p *Provoker) crashNow() {
	if p.err != nil {
		return
	}
	p.pool.TriggerCrash()
	p.pool.Crash(p.policy())
	p.pool.Recover()
	p.crashes++
}

// actReadOnlyAfterBacktrack is the fourth act of the set scenarios. Thread
// 1 runs op, an update whose attempt publishes a two-entry AffectSet. At
// the attempt's Publish thread 2 runs b1, which changes the attempt's
// second entry, so op's Help tags the first entry, fails on the second and
// backtracks; at that backtrack persist thread 2 runs b2, which makes op's
// outcome read-only. op's retry returns false from its gather phase with
// the checkpoint naming the failed attempt; the crash strikes just before
// that response is delivered, and op's recovery function must re-execute
// it: the failed attempt's recovery Help fails again (its info values
// never recur), Recover reports re-invoke, and the re-execution answers
// false.
func actReadOnlyAfterBacktrack(p *Provoker, prefix string,
	attach func() (func(tid int) setOps, error), op, b1, b2 chaos.Op) error {
	handles, err := attach()
	if err != nil {
		return err
	}
	var res, res1, res2 uint64
	err = p.interleave(1, []hook{
		{prefix + "/pwb-RD", publishHit, func() { res1 = setThread{handles(2)}.Run(b1) }},
		{prefix + "/pwb-info-backtrack", 1, func() { res2 = setThread{handles(2)}.Run(b2) }},
	}, func() error {
		res = setThread{handles(1)}.Run(op)
		return nil
	})
	if err != nil {
		return err
	}
	p.crashNow()
	if handles, err = attach(); err != nil {
		return err
	}
	rec := setThread{handles(1)}.Recover(op)
	if res != 0 || res1 != 1 || res2 != 1 || rec != 0 {
		return fmt.Errorf("sweep: read-only-after-backtrack op=%d b1=%d b2=%d recovered=%d, want 0 1 1 0",
			res, res1, res2, rec)
	}
	return nil
}

// expectKeys compares a set structure's final content with the scenario's
// deterministic expectation.
func expectKeys(got, want []int64) error {
	ok := len(got) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = got[i] == want[i]
	}
	if !ok {
		return fmt.Errorf("sweep: final keys %v, want %v", got, want)
	}
	return nil
}

// provokeListBacktrack scripts the backtrack scenario on rlist. With keys
// {10, 20, 30}: thread 1's Delete(20) has AffectSet {node10, node20};
// thread 2's Insert(25) opens the window (node20, node30) and tags node20
// first. Frozen in that order, thread 1's recovery tags node10, finds
// thread 2's tag on node20 and backtracks.
func provokeListBacktrack(pool *pmem.Pool, p *Provoker) error {
	l, err := rlist.Attach(pool, 0)
	if err != nil {
		return err
	}
	boot := l.Handle(pool.NewThread(0))
	for _, k := range []int64{10, 20, 30} {
		boot.Invoke()
		boot.Insert(k)
	}
	if err := p.Stage("rlist/pwb-RD", publishHit, func() error {
		l, err := rlist.Attach(pool, 0)
		if err != nil {
			return err
		}
		l.Handle(pool.NewThread(1)).Delete(20)
		return nil
	}); err != nil {
		return err
	}
	if err := p.Stage("rlist/pwb-info-tag", 1, func() error {
		l, err := rlist.Attach(pool, 0)
		if err != nil {
			return err
		}
		l.Handle(pool.NewThread(2)).Insert(25)
		return nil
	}); err != nil {
		return err
	}
	var resA bool
	if err := p.Target(func() error {
		l, err := rlist.Attach(pool, 0)
		if err != nil {
			return err
		}
		resA = l.Handle(pool.NewThread(1)).RecoverDelete(20)
		return nil
	}); err != nil {
		return err
	}
	l, err = rlist.Attach(pool, 0)
	if err != nil {
		return err
	}
	resB := l.Handle(pool.NewThread(2)).RecoverInsert(25)
	if !resA || !resB {
		return fmt.Errorf("sweep: delete=%v insert=%v, want both true", resA, resB)
	}
	// Act four over {10, 25, 30}: Insert(20) affects {node10, node25};
	// Insert(27) re-tags node25 first, then Insert(20) completes.
	if err := actReadOnlyAfterBacktrack(p, "rlist", func() (func(int) setOps, error) {
		l, err := rlist.Attach(pool, 0)
		return func(tid int) setOps { return l.Handle(pool.NewThread(tid)) }, err
	}, chaos.Op{Kind: chaos.KindInsert, Key: 20},
		chaos.Op{Kind: chaos.KindInsert, Key: 27},
		chaos.Op{Kind: chaos.KindInsert, Key: 20}); err != nil {
		return err
	}
	if l, err = rlist.Attach(pool, 0); err != nil {
		return err
	}
	ctx := pool.NewThread(0)
	if err := l.CheckInvariants(ctx, true); err != nil {
		return err
	}
	return expectKeys(l.Keys(ctx), []int64{10, 20, 25, 27, 30})
}

// provokeBSTBacktrack scripts the backtrack scenario on rbst. Inserting 10
// then 20 builds root -> I1(Inf1) -> I2(20) -> {leaf10, leaf20}: thread
// 1's Delete(10) has AffectSet {gp = I1, p = I2}; thread 2's Insert(15)
// reaches leaf10 under the same parent and tags I2 first.
func provokeBSTBacktrack(pool *pmem.Pool, p *Provoker) error {
	tr, err := rbst.Attach(pool, 0)
	if err != nil {
		return err
	}
	boot := tr.Handle(pool.NewThread(0))
	for _, k := range []int64{10, 20} {
		boot.Invoke()
		boot.Insert(k)
	}
	if err := p.Stage("rbst/pwb-RD", publishHit, func() error {
		tr, err := rbst.Attach(pool, 0)
		if err != nil {
			return err
		}
		tr.Handle(pool.NewThread(1)).Delete(10)
		return nil
	}); err != nil {
		return err
	}
	if err := p.Stage("rbst/pwb-info-tag", 1, func() error {
		tr, err := rbst.Attach(pool, 0)
		if err != nil {
			return err
		}
		tr.Handle(pool.NewThread(2)).Insert(15)
		return nil
	}); err != nil {
		return err
	}
	var resA bool
	if err := p.Target(func() error {
		tr, err := rbst.Attach(pool, 0)
		if err != nil {
			return err
		}
		resA = tr.Handle(pool.NewThread(1)).RecoverDelete(10)
		return nil
	}); err != nil {
		return err
	}
	tr, err = rbst.Attach(pool, 0)
	if err != nil {
		return err
	}
	resB := tr.Handle(pool.NewThread(2)).RecoverInsert(15)
	if !resA || !resB {
		return fmt.Errorf("sweep: delete=%v insert=%v, want both true", resA, resB)
	}
	// Act four over root -> I1(Inf1) -> I2(20) -> {leaf15, leaf20}:
	// Delete(15) affects {gp = I1, p = I2}; Insert(17) re-tags I2 first
	// (it splits leaf15), then Delete(15) completes.
	if err := actReadOnlyAfterBacktrack(p, "rbst", func() (func(int) setOps, error) {
		tr, err := rbst.Attach(pool, 0)
		return func(tid int) setOps { return tr.Handle(pool.NewThread(tid)) }, err
	}, chaos.Op{Kind: chaos.KindDelete, Key: 15},
		chaos.Op{Kind: chaos.KindInsert, Key: 17},
		chaos.Op{Kind: chaos.KindDelete, Key: 15}); err != nil {
		return err
	}
	if tr, err = rbst.Attach(pool, 0); err != nil {
		return err
	}
	ctx := pool.NewThread(0)
	if err := tr.CheckInvariants(ctx, true); err != nil {
		return err
	}
	return expectKeys(tr.Keys(ctx), []int64{17, 20})
}

// provokeHashBacktrack scripts the backtrack scenario on rhash. Keys 3, 5,
// 6 and 8 all land in bucket 0 of the adapter's 4-bucket map, so the dance
// is the rlist one inside that bucket: Delete(5) affects {node3, node5},
// Insert(6) opens (node5, node8) and tags node5 first.
func provokeHashBacktrack(pool *pmem.Pool, p *Provoker) error {
	m, err := rhash.Attach(pool, 0)
	if err != nil {
		return err
	}
	boot := m.Handle(pool.NewThread(0))
	for _, k := range []int64{3, 5, 8} {
		boot.Invoke()
		boot.Insert(k)
	}
	if err := p.Stage("rhash/pwb-RD", publishHit, func() error {
		m, err := rhash.Attach(pool, 0)
		if err != nil {
			return err
		}
		m.Handle(pool.NewThread(1)).Delete(5)
		return nil
	}); err != nil {
		return err
	}
	if err := p.Stage("rhash/pwb-info-tag", 1, func() error {
		m, err := rhash.Attach(pool, 0)
		if err != nil {
			return err
		}
		m.Handle(pool.NewThread(2)).Insert(6)
		return nil
	}); err != nil {
		return err
	}
	var resA bool
	if err := p.Target(func() error {
		m, err := rhash.Attach(pool, 0)
		if err != nil {
			return err
		}
		resA = m.Handle(pool.NewThread(1)).RecoverDelete(5)
		return nil
	}); err != nil {
		return err
	}
	m, err = rhash.Attach(pool, 0)
	if err != nil {
		return err
	}
	resB := m.Handle(pool.NewThread(2)).RecoverInsert(6)
	if !resA || !resB {
		return fmt.Errorf("sweep: delete=%v insert=%v, want both true", resA, resB)
	}
	// Act four, again inside bucket 0 ({3, 6, 8}; 7 and 12 land there
	// too): Insert(7) affects {node6, node8}; Insert(12) re-tags node8
	// first, then Insert(7) completes.
	if err := actReadOnlyAfterBacktrack(p, "rhash", func() (func(int) setOps, error) {
		m, err := rhash.Attach(pool, 0)
		return func(tid int) setOps { return m.Handle(pool.NewThread(tid)) }, err
	}, chaos.Op{Kind: chaos.KindInsert, Key: 7},
		chaos.Op{Kind: chaos.KindInsert, Key: 12},
		chaos.Op{Kind: chaos.KindInsert, Key: 7}); err != nil {
		return err
	}
	if m, err = rhash.Attach(pool, 0); err != nil {
		return err
	}
	ctx := pool.NewThread(0)
	if err := m.CheckInvariants(ctx, true); err != nil {
		return err
	}
	return expectKeys(m.Keys(ctx), []int64{3, 6, 7, 8, 12})
}

// The first-observer sites ("<prefix>/pwb-info-observed") record the
// link-and-persist fast path of tracking.Help: a helper whose tagging CAS
// finds the descriptor's own tag already installed re-issues the info
// word's persist instead of re-tagging (see tracking.Engine.ObservedSite).
// A solo crash-free run never helps a foreign descriptor, so no profiled
// single-threaded workload reaches the branch — the scenarios below stage
// the two-thread race deterministically: thread 1 crashes between its
// durable tagging CAS and everything after it (the dirty store lands, the
// owner's flush never follows), then thread 2's operation observes the
// frozen tag, helps, and executes the first-observer persist, where the
// sweep's target crash is armed.

// provokeListFirstObserver scripts the first-observer scenario on rlist.
// With keys {10, 20, 30}: thread 1's Delete(20) is crashed at its first
// tagging persist, leaving node10 durably tagged; thread 2's Find(10)
// observes the tag and helps, re-persisting node10's info word.
func provokeListFirstObserver(pool *pmem.Pool, p *Provoker) error {
	l, err := rlist.Attach(pool, 0)
	if err != nil {
		return err
	}
	boot := l.Handle(pool.NewThread(0))
	for _, k := range []int64{10, 20, 30} {
		boot.Invoke()
		boot.Insert(k)
	}
	if err := p.Stage("rlist/pwb-info-tag", 1, func() error {
		l, err := rlist.Attach(pool, 0)
		if err != nil {
			return err
		}
		l.Handle(pool.NewThread(1)).Delete(20)
		return nil
	}); err != nil {
		return err
	}
	var resFind bool
	if err := p.Target(func() error {
		l, err := rlist.Attach(pool, 0)
		if err != nil {
			return err
		}
		resFind = l.Handle(pool.NewThread(2)).Find(10)
		return nil
	}); err != nil {
		return err
	}
	l, err = rlist.Attach(pool, 0)
	if err != nil {
		return err
	}
	resDel := l.Handle(pool.NewThread(1)).RecoverDelete(20)
	if !resFind || !resDel {
		return fmt.Errorf("sweep: find=%v delete=%v, want both true", resFind, resDel)
	}
	ctx := pool.NewThread(0)
	if err := l.CheckInvariants(ctx, true); err != nil {
		return err
	}
	return expectKeys(l.Keys(ctx), []int64{10, 30})
}

// provokeBSTFirstObserver scripts the first-observer scenario on rbst.
// With keys {10, 20} (root -> I1(Inf1) -> I2(20) -> {leaf10, leaf20}):
// thread 1's Delete(10) is crashed at its first tagging persist, leaving
// gp = I1 durably tagged; thread 2's Delete(20) reaches leaf20 with the
// same grandparent, observes the tag and helps, re-persisting I1's info.
func provokeBSTFirstObserver(pool *pmem.Pool, p *Provoker) error {
	tr, err := rbst.Attach(pool, 0)
	if err != nil {
		return err
	}
	boot := tr.Handle(pool.NewThread(0))
	for _, k := range []int64{10, 20} {
		boot.Invoke()
		boot.Insert(k)
	}
	if err := p.Stage("rbst/pwb-info-tag", 1, func() error {
		tr, err := rbst.Attach(pool, 0)
		if err != nil {
			return err
		}
		tr.Handle(pool.NewThread(1)).Delete(10)
		return nil
	}); err != nil {
		return err
	}
	var resB bool
	if err := p.Target(func() error {
		tr, err := rbst.Attach(pool, 0)
		if err != nil {
			return err
		}
		resB = tr.Handle(pool.NewThread(2)).Delete(20)
		return nil
	}); err != nil {
		return err
	}
	tr, err = rbst.Attach(pool, 0)
	if err != nil {
		return err
	}
	resA := tr.Handle(pool.NewThread(1)).RecoverDelete(10)
	if !resA || !resB {
		return fmt.Errorf("sweep: delete(10)=%v delete(20)=%v, want both true", resA, resB)
	}
	ctx := pool.NewThread(0)
	if err := tr.CheckInvariants(ctx, true); err != nil {
		return err
	}
	return expectKeys(tr.Keys(ctx), nil)
}

// provokeHashFirstObserver scripts the first-observer scenario on rhash:
// the rlist dance inside bucket 0 of the adapter's 4-bucket map, with keys
// {3, 5, 8}: Delete(5) tags node3 and crashes; Find(3) observes and helps.
func provokeHashFirstObserver(pool *pmem.Pool, p *Provoker) error {
	m, err := rhash.Attach(pool, 0)
	if err != nil {
		return err
	}
	boot := m.Handle(pool.NewThread(0))
	for _, k := range []int64{3, 5, 8} {
		boot.Invoke()
		boot.Insert(k)
	}
	if err := p.Stage("rhash/pwb-info-tag", 1, func() error {
		m, err := rhash.Attach(pool, 0)
		if err != nil {
			return err
		}
		m.Handle(pool.NewThread(1)).Delete(5)
		return nil
	}); err != nil {
		return err
	}
	var resFind bool
	if err := p.Target(func() error {
		m, err := rhash.Attach(pool, 0)
		if err != nil {
			return err
		}
		resFind = m.Handle(pool.NewThread(2)).Find(3)
		return nil
	}); err != nil {
		return err
	}
	m, err = rhash.Attach(pool, 0)
	if err != nil {
		return err
	}
	resDel := m.Handle(pool.NewThread(1)).RecoverDelete(5)
	if !resFind || !resDel {
		return fmt.Errorf("sweep: find=%v delete=%v, want both true", resFind, resDel)
	}
	ctx := pool.NewThread(0)
	if err := m.CheckInvariants(ctx, true); err != nil {
		return err
	}
	return expectKeys(m.Keys(ctx), []int64{3, 8})
}

// provokeQueueFirstObserver scripts the first-observer scenario on rqueue:
// thread 1's Enqueue(100) is crashed at its tagging persist, leaving the
// sentinel durably tagged; thread 2's Enqueue(200) observes the tag at its
// own last-node read and helps, re-persisting the sentinel's info word.
func provokeQueueFirstObserver(pool *pmem.Pool, p *Provoker) error {
	if err := p.Stage("rqueue/pwb-info-tag", 1, func() error {
		q, err := rqueue.Attach(pool, 0)
		if err != nil {
			return err
		}
		q.Handle(pool.NewThread(1)).Enqueue(100)
		return nil
	}); err != nil {
		return err
	}
	if err := p.Target(func() error {
		q, err := rqueue.Attach(pool, 0)
		if err != nil {
			return err
		}
		q.Handle(pool.NewThread(2)).Enqueue(200)
		return nil
	}); err != nil {
		return err
	}
	q, err := rqueue.Attach(pool, 0)
	if err != nil {
		return err
	}
	q.Handle(pool.NewThread(1)).RecoverEnqueue(100)
	ctx := pool.NewThread(0)
	if err := q.CheckInvariants(ctx, true); err != nil {
		return err
	}
	got := q.Drain(ctx)
	if len(got) != 2 || got[0] != 100 || got[1] != 200 {
		return fmt.Errorf("sweep: final queue %v, want [100 200]", got)
	}
	return nil
}

// provokeStackFirstObserver scripts the first-observer scenario on rstack:
// thread 1's Push(100) is crashed at its tagging persist, leaving the
// sentinel durably tagged; thread 2's Push(200) observes the tag at its
// own top read and helps, re-persisting the sentinel's info word.
func provokeStackFirstObserver(pool *pmem.Pool, p *Provoker) error {
	if err := p.Stage("rstack/pwb-info-tag", 1, func() error {
		s, err := rstack.Attach(pool, 0)
		if err != nil {
			return err
		}
		s.Handle(pool.NewThread(1)).Push(100)
		return nil
	}); err != nil {
		return err
	}
	if err := p.Target(func() error {
		s, err := rstack.Attach(pool, 0)
		if err != nil {
			return err
		}
		s.Handle(pool.NewThread(2)).Push(200)
		return nil
	}); err != nil {
		return err
	}
	s, err := rstack.Attach(pool, 0)
	if err != nil {
		return err
	}
	s.Handle(pool.NewThread(1)).RecoverPush(100)
	ctx := pool.NewThread(0)
	if err := s.CheckInvariants(ctx, true); err != nil {
		return err
	}
	got := s.Snapshot(ctx)
	if len(got) != 2 || got[0] != 200 || got[1] != 100 {
		return fmt.Errorf("sweep: final stack %v, want [200 100]", got)
	}
	return nil
}
