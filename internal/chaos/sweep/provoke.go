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
//
// Each scenario is one script (backtrack, observed) run over one
// structure's row (scene) of its table; the rows' comments say why their
// keys and operations stage the conflict on that structure.

// Both key off Publish, not BeginOp: the engine's pwb-RD site records the
// checkpoint persist of Publish, and under tracking.Default BeginOp persists
// nothing, so an operation's publishHit-th write-back at that site is its
// first Publish.

import (
	"fmt"
	"slices"

	"repro/internal/chaos"
	"repro/internal/pmem"
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
	sink    pmem.TelemetrySink // the task's telemetry registry
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
	fired, err := armedCrashes(p.pool, p.pool.RegisterSite(p.site), p.hit, p.depth, p.policy,
		func() (bool, error) {
			var actErr error
			if runParked(func() { actErr = act() }) {
				return true, nil
			}
			return false, actErr
		}, nil)
	p.fired += fired
	p.crashes += fired
	p.err = err
	return err
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
	pmem.TelemetrySink // the task's registry
	tid                int
	sites              []pmem.Site
	left               []int64
	hooks              []hook
}

func (s *hookSink) TelemetryPWB(tid int, site pmem.Site, stall int64) {
	s.TelemetrySink.TelemetryPWB(tid, site, stall)
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

// interleave runs act with hooks armed on thread tid: each hook fires
// once, synchronously, the moment tid records the hook's k-th write-back
// of its site — from inside that persist instruction, so the hook's
// operations land between two instructions of the running operation,
// deterministically. act must not crash; every hook must fire.
func (p *Provoker) interleave(tid int, hooks []hook, act func() error) error {
	if p.err != nil {
		return p.err
	}
	s := &hookSink{TelemetrySink: p.sink, tid: tid, hooks: hooks}
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
func actReadOnlyAfterBacktrack(p *Provoker, prefix string, attach attachFunc, op, b1, b2 chaos.Op) error {
	v, err := attach(p.pool)
	if err != nil {
		return err
	}
	var res, res1, res2 uint64
	err = p.interleave(1, []hook{
		{prefix + "/pwb-RD", publishHit, func() { res1 = v.thread(2).Run(b1) }},
		{prefix + "/pwb-info-backtrack", 1, func() { res2 = v.thread(2).Run(b2) }},
	}, func() error {
		res = v.thread(1).Run(op)
		return nil
	})
	if err != nil {
		return err
	}
	p.crashNow()
	if v, err = attach(p.pool); err != nil {
		return err
	}
	rec := v.thread(1).Recover(op)
	if res != 0 || res1 != 1 || res2 != 1 || rec != 0 {
		return fmt.Errorf("sweep: read-only-after-backtrack op=%d b1=%d b2=%d recovered=%d, want 0 1 1 0",
			res, res1, res2, rec)
	}
	return nil
}

// scene is one structure's data row for a scripted scenario. Thread 1
// runs a and thread 2 runs b; every operation of a row answers 1 (true,
// or an acknowledged enqueue or push).
type scene struct {
	// preload is inserted by thread 0, one Invoke and Insert per key,
	// before the first act; the value structures start empty.
	preload []int64
	a, b    chaos.Op
	// act4 is the backtrack scenario's fourth act: op, b1 and b2 of
	// actReadOnlyAfterBacktrack.
	act4 [3]chaos.Op
	// want is view.contents at the end.
	want []int64
}

func ins(k int64) chaos.Op  { return chaos.Op{Kind: chaos.KindInsert, Key: k} }
func del(k int64) chaos.Op  { return chaos.Op{Kind: chaos.KindDelete, Key: k} }
func find(k int64) chaos.Op { return chaos.Op{Kind: chaos.KindFind, Key: k} }

// backtrackScenes holds the backtrack scenario's rows, by site prefix.
var backtrackScenes = map[string]scene{
	// With keys {10, 20, 30}: thread 1's Delete(20) has AffectSet
	// {node10, node20}; thread 2's Insert(25) opens the window (node20,
	// node30) and tags node20 first. Frozen in that order, thread 1's
	// recovery tags node10, finds thread 2's tag on node20 and
	// backtracks. Act four over {10, 25, 30}: Insert(20) affects
	// {node10, node25}; Insert(27) re-tags node25 first, then Insert(20)
	// completes.
	"rlist": {preload: []int64{10, 20, 30}, a: del(20), b: ins(25),
		act4: [3]chaos.Op{ins(20), ins(27), ins(20)}, want: []int64{10, 20, 25, 27, 30}},
	// Inserting 10 then 20 builds root -> I1(Inf1) -> I2(20) -> {leaf10,
	// leaf20}: thread 1's Delete(10) has AffectSet {gp = I1, p = I2};
	// thread 2's Insert(15) reaches leaf10 under the same parent and tags
	// I2 first. Act four over root -> I1(Inf1) -> I2(20) -> {leaf15,
	// leaf20}: Delete(15) affects {gp = I1, p = I2}; Insert(17) re-tags I2
	// first (it splits leaf15), then Delete(15) completes.
	"rbst": {preload: []int64{10, 20}, a: del(10), b: ins(15),
		act4: [3]chaos.Op{del(15), ins(17), del(15)}, want: []int64{17, 20}},
	// Keys 3, 5, 6 and 8 all land in bucket 0 of the adapter's 4-bucket
	// map, so the dance is the rlist one inside that bucket: Delete(5)
	// affects {node3, node5}, Insert(6) opens (node5, node8) and tags
	// node5 first. Act four, again inside bucket 0 ({3, 6, 8}; 7 and 12
	// land there too): Insert(7) affects {node6, node8}; Insert(12)
	// re-tags node8 first, then Insert(7) completes.
	"rhash": {preload: []int64{3, 5, 8}, a: del(5), b: ins(6),
		act4: [3]chaos.Op{ins(7), ins(12), ins(7)}, want: []int64{3, 6, 7, 8, 12}},
}

// backtrack scripts the backtrack scenario (see the top of this file)
// over row s of the structure with site prefix prefix.
func backtrack(prefix string, attach attachFunc, s scene) func(*pmem.Pool, *Provoker) error {
	return func(pool *pmem.Pool, p *Provoker) error {
		if err := preload(pool, attach, s.preload); err != nil {
			return err
		}
		if err := p.Stage(prefix+"/pwb-RD", publishHit, as(pool, attach, 1, func(th chaos.Thread) { th.Run(s.a) })); err != nil {
			return err
		}
		if err := p.Stage(prefix+"/pwb-info-tag", 1, as(pool, attach, 2, func(th chaos.Thread) { th.Run(s.b) })); err != nil {
			return err
		}
		var resA uint64
		if err := p.Target(as(pool, attach, 1, func(th chaos.Thread) { resA = th.Recover(s.a) })); err != nil {
			return err
		}
		v, err := attach(pool)
		if err != nil {
			return err
		}
		if resB := v.thread(2).Recover(s.b); resA != 1 || resB != 1 {
			return fmt.Errorf("sweep: a recovered %d, b recovered %d, want both 1", resA, resB)
		}
		if err := actReadOnlyAfterBacktrack(p, prefix, attach, s.act4[0], s.act4[1], s.act4[2]); err != nil {
			return err
		}
		if v, err = attach(pool); err != nil {
			return err
		}
		return expect(pool, v, s.want)
	}
}

// The observed sites ("<prefix>/pwb-info-observed") record the branch of
// tracking.Help where a helper's tagging CAS finds the descriptor's own
// tag already installed: the helper re-persists the info word another
// helper tagged instead of re-tagging. A solo crash-free run never helps a
// foreign descriptor, so no profiled single-threaded workload reaches the
// branch — the observed scenario stages the two-thread race
// deterministically: thread 1 crashes between its durable tagging CAS and
// everything after it, then thread 2's operation observes the frozen tag,
// helps, and executes the observed persist, where the sweep's target
// crash is armed.

// observedScenes holds the observed scenario's rows, by site prefix.
var observedScenes = map[string]scene{
	// With keys {10, 20, 30}: thread 1's Delete(20) is crashed at its
	// first tagging persist, leaving node10 durably tagged; thread 2's
	// Find(10) observes the tag and helps, re-persisting node10's info.
	"rlist": {preload: []int64{10, 20, 30}, a: del(20), b: find(10), want: []int64{10, 30}},
	// With keys {10, 20} (root -> I1(Inf1) -> I2(20) -> {leaf10,
	// leaf20}): thread 1's Delete(10) leaves gp = I1 durably tagged;
	// thread 2's Delete(20) reaches leaf20 with the same grandparent,
	// observes the tag and helps, re-persisting I1's info.
	"rbst": {preload: []int64{10, 20}, a: del(10), b: del(20)},
	// The rlist dance inside bucket 0 of the adapter's 4-bucket map:
	// Delete(5) tags node3 and crashes; Find(3) observes and helps.
	"rhash": {preload: []int64{3, 5, 8}, a: del(5), b: find(3), want: []int64{3, 8}},
	// Thread 1's Enqueue(100) leaves the sentinel durably tagged; thread
	// 2's Enqueue(200) observes the tag at its own last-node read and
	// helps, re-persisting the sentinel's info word.
	"rqueue": {a: chaos.Op{Kind: chaos.KindEnqueue, Key: 100}, b: chaos.Op{Kind: chaos.KindEnqueue, Key: 200},
		want: []int64{100, 200}},
	// Thread 1's Push(100) leaves the sentinel durably tagged; thread 2's
	// Push(200) observes the tag at its own top read and helps.
	"rstack": {a: chaos.Op{Kind: chaos.KindPush, Key: 100}, b: chaos.Op{Kind: chaos.KindPush, Key: 200},
		want: []int64{200, 100}},
}

// observed scripts the observed-tag scenario over row s of the structure
// with site prefix prefix.
func observed(prefix string, attach attachFunc, s scene) func(*pmem.Pool, *Provoker) error {
	return func(pool *pmem.Pool, p *Provoker) error {
		if err := preload(pool, attach, s.preload); err != nil {
			return err
		}
		if err := p.Stage(prefix+"/pwb-info-tag", 1, as(pool, attach, 1, func(th chaos.Thread) { th.Run(s.a) })); err != nil {
			return err
		}
		var resB uint64
		if err := p.Target(as(pool, attach, 2, func(th chaos.Thread) { resB = th.Run(s.b) })); err != nil {
			return err
		}
		v, err := attach(pool)
		if err != nil {
			return err
		}
		if resA := v.thread(1).Recover(s.a); resA != 1 || resB != 1 {
			return fmt.Errorf("sweep: a recovered %d, b answered %d, want both 1", resA, resB)
		}
		return expect(pool, v, s.want)
	}
}

// scripted returns the scenarios the tables above hold for the structure
// with site prefix prefix, keyed by target site.
func scripted(prefix string, attach attachFunc) map[string]func(*pmem.Pool, *Provoker) error {
	m := map[string]func(*pmem.Pool, *Provoker) error{}
	if s, ok := backtrackScenes[prefix]; ok {
		m[prefix+"/pwb-info-backtrack"] = backtrack(prefix, attach, s)
	}
	if s, ok := observedScenes[prefix]; ok {
		m[prefix+"/pwb-info-observed"] = observed(prefix, attach, s)
	}
	return m
}

// preload inserts keys as thread 0; an empty preload attaches nothing.
func preload(pool *pmem.Pool, attach attachFunc, keys []int64) error {
	if len(keys) == 0 {
		return nil
	}
	v, err := attach(pool)
	if err != nil {
		return err
	}
	boot := v.thread(0)
	for _, k := range keys {
		boot.Invoke()
		boot.Run(ins(k))
	}
	return nil
}

// as returns the act that attaches the structure and hands f thread
// tid's handle.
func as(pool *pmem.Pool, attach attachFunc, tid int, f func(chaos.Thread)) func() error {
	return func() error {
		v, err := attach(pool)
		if err != nil {
			return err
		}
		f(v.thread(tid))
		return nil
	}
}

// expect checks the attached structure's invariants and compares its
// final contents with the scenario's deterministic expectation.
func expect(pool *pmem.Pool, v view, want []int64) error {
	ctx := pool.NewThread(0)
	if err := v.check(ctx); err != nil {
		return err
	}
	if got := v.contents(ctx); !slices.Equal(got, want) {
		return fmt.Errorf("sweep: final contents %v, want %v", got, want)
	}
	return nil
}
