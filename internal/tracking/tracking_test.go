package tracking

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/pmem"
)

func newEngine(t testing.TB, mode pmem.Mode) (*pmem.Pool, *Engine) {
	t.Helper()
	pool := pmem.New(pmem.Config{Mode: mode, CapacityWords: 1 << 18, MaxThreads: 8})
	return pool, New(pool, 8, "test")
}

// fakeNode allocates a two-word test node: word 0 = payload, word 1 = info.
func fakeNode(ctx *pmem.ThreadCtx, payload uint64) (node, info pmem.Addr) {
	n := ctx.AllocLocal(2)
	ctx.Store(n, payload)
	return n, n + pmem.WordSize
}

func TestTagHelpers(t *testing.T) {
	f := func(raw uint64) bool {
		d := pmem.Addr(raw &^ 7) // valid descriptor addresses are 8-aligned
		return IsTagged(Tagged(d)) &&
			!IsTagged(Untagged(d)) &&
			DescOf(Tagged(d)) == d &&
			DescOf(Untagged(d)) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDescRoundTrip(t *testing.T) {
	pool, eng := newEngine(t, pmem.ModeStrict)
	th := eng.Thread(pool.NewThread(1))
	_, i1 := fakeNode(th.Ctx(), 1)
	_, i2 := fakeNode(th.Ctx(), 2)
	f, _ := fakeNode(th.Ctx(), 3)
	affect := []AffectEntry{{InfoField: i1, Observed: 10, Untag: true}, {InfoField: i2, Observed: 20}}
	writes := []WriteEntry{{Field: f, Old: 3, New: 4}}
	news := []pmem.Addr{i2}
	d := th.NewDesc(7, 1, affect, writes, news)

	if op := th.ctx.Load(d + descOpType*pmem.WordSize); op != 7 {
		t.Fatalf("op type = %d", op)
	}
	if th.Result(d) != Bottom {
		t.Fatalf("fresh result = %d, want Bottom", th.Result(d))
	}
	nA, nW, nN := th.counts(d)
	if nA != 2 || nW != 1 || nN != 1 {
		t.Fatalf("counts = %d,%d,%d", nA, nW, nN)
	}
	for i, want := range affect {
		field, obs, untag := th.affectEntry(d, i)
		if field != want.InfoField || obs != want.Observed || untag != want.Untag {
			t.Fatalf("affect[%d] = (%v,%d,%v), want %+v", i, field, obs, untag, want)
		}
	}
	if got := th.writeEntry(d, nA, 0); got != writes[0] {
		t.Fatalf("write[0] = %+v", got)
	}
	if got := th.newEntry(d, nA, nW, 0); got != news[0] {
		t.Fatalf("new[0] = %v", got)
	}
	if th.DescWords(d) != descEntries+2*2+3*1+1 {
		t.Fatalf("DescWords = %d", th.DescWords(d))
	}
}

// TestBeginOpPersistsCheckpoint: under Paper, BeginOp issues Algorithm 1's
// exact instructions — RD := Null at the RD site, pfence, CP := 1 at the CP
// site, psync — and leaves CP = 1, RD = Null durable in the packed word;
// under Default it issues nothing and the word stays 0. Either way Recover
// reports re-invoke for an operation that never published.
func TestBeginOpPersistsCheckpoint(t *testing.T) {
	for _, c := range []struct {
		prof                    Profile
		pwbRD, pwbCP, fence, sy uint64
		durable                 uint64
	}{
		{Paper, 1, 1, 1, 1, 1},
		{Full, 1, 1, 1, 1, 1},
		{Default, 0, 0, 0, 0, 0},
	} {
		pool, eng := newEngine(t, pmem.ModeStrict)
		eng.SetProfile(c.prof)
		th := eng.Thread(pool.NewThread(1))
		th.Invoke()
		base := pool.Snapshot()
		th.BeginOp()
		d := pool.Snapshot().Sub(base)
		if d.PWBsBySite["test/pwb-RD"] != c.pwbRD || d.PWBsBySite["test/pwb-CP"] != c.pwbCP ||
			d.PWBs != c.pwbRD+c.pwbCP || d.PFences != c.fence || d.PSyncs != c.sy {
			t.Fatalf("%s: BeginOp issued %d pwb-RD, %d pwb-CP, %d pwbs, %d pfences, %d psyncs; want %d, %d, %d, %d, %d",
				c.prof, d.PWBsBySite["test/pwb-RD"], d.PWBsBySite["test/pwb-CP"], d.PWBs, d.PFences, d.PSyncs,
				c.pwbRD, c.pwbCP, c.pwbRD+c.pwbCP, c.fence, c.sy)
		}
		crashNow(pool)
		if v := pool.DurableLoad(th.ck); v != c.durable {
			t.Fatalf("%s: durable checkpoint %#x after BeginOp, want %#x", c.prof, v, c.durable)
		}
		th2 := Attach(pool, eng.TableAddr(), 8, "test").Thread(pool.NewThread(1))
		if _, _, ok := th2.Recover(); ok {
			t.Fatalf("%s: Recover claimed a result for an unpublished op", c.prof)
		}
	}
}

// TestPublishPacksCheckpoint: Publish's one store sets CP = 1 and RD = d
// together, at the same cost under every profile: the descriptor's pwbs,
// a pfence, one pwb of the checkpoint word at the RD site, and a psync.
func TestPublishPacksCheckpoint(t *testing.T) {
	for _, prof := range []Profile{Paper, Default} {
		pool, eng := newEngine(t, pmem.ModeStrict)
		eng.SetProfile(prof)
		th := eng.Thread(pool.NewThread(1))
		_, i1 := fakeNode(th.Ctx(), 1)
		th.Invoke()
		th.BeginOp()
		d := th.NewDesc(1, 1, []AffectEntry{{InfoField: i1, Observed: 0, Untag: true}}, nil, nil)
		base := pool.Snapshot()
		th.Publish(d)
		st := pool.Snapshot().Sub(base)
		if st.PWBsBySite["test/pwb-RD"] != 1 || st.PWBsBySite["test/pwb-CP"] != 0 ||
			st.PFences != 1 || st.PSyncs != 1 {
			t.Fatalf("%s: Publish issued %v, %d pfences, %d psyncs", prof, st.PWBsBySite, st.PFences, st.PSyncs)
		}
		if v := pool.DurableLoad(th.ck); v != uint64(d)|1 {
			t.Fatalf("%s: durable checkpoint %#x after Publish, want %#x", prof, v, uint64(d)|1)
		}
	}
}

func TestHelpHappyPath(t *testing.T) {
	pool, eng := newEngine(t, pmem.ModeStrict)
	th := eng.Thread(pool.NewThread(1))
	n1, i1 := fakeNode(th.Ctx(), 100)
	n2, i2 := fakeNode(th.Ctx(), 200)
	_, i3 := fakeNode(th.Ctx(), 300) // "new" node, pre-tagged below

	th.BeginOp()
	d := th.NewDesc(1, 1,
		[]AffectEntry{{InfoField: i1, Observed: 0, Untag: true}, {InfoField: i2, Observed: 0, Untag: false}},
		[]WriteEntry{{Field: n1, Old: 100, New: 101}, {Field: n2, Old: 200, New: 201}},
		[]pmem.Addr{i3})
	th.Ctx().Store(i3, Tagged(d))
	th.Publish(d)
	th.Help(d)

	if got := th.Result(d); got != 1 {
		t.Fatalf("result = %d, want 1", got)
	}
	if v := th.Ctx().Load(n1); v != 101 {
		t.Fatalf("write 1 not applied: %d", v)
	}
	if v := th.Ctx().Load(n2); v != 201 {
		t.Fatalf("write 2 not applied: %d", v)
	}
	if v := th.Ctx().Load(i1); v != Untagged(d) {
		t.Fatalf("node 1 not untagged: %#x", v)
	}
	if v := th.Ctx().Load(i2); v != Tagged(d) {
		t.Fatalf("removed node 2 should stay tagged: %#x", v)
	}
	if v := th.Ctx().Load(i3); v != Untagged(d) {
		t.Fatalf("new node not untagged: %#x", v)
	}
}

func TestHelpIdempotent(t *testing.T) {
	pool, eng := newEngine(t, pmem.ModeStrict)
	th := eng.Thread(pool.NewThread(1))
	n1, i1 := fakeNode(th.Ctx(), 5)
	th.BeginOp()
	d := th.NewDesc(1, 1,
		[]AffectEntry{{InfoField: i1, Observed: 0, Untag: true}},
		[]WriteEntry{{Field: n1, Old: 5, New: 6}}, nil)
	th.Publish(d)
	for k := 0; k < 3; k++ {
		th.Help(d)
		if v := th.Ctx().Load(n1); v != 6 {
			t.Fatalf("after Help #%d payload = %d, want 6", k+1, v)
		}
		if r := th.Result(d); r != 1 {
			t.Fatalf("after Help #%d result = %d", k+1, r)
		}
	}
}

func TestHelpBacktracksOnContention(t *testing.T) {
	pool, eng := newEngine(t, pmem.ModeStrict)
	th := eng.Thread(pool.NewThread(1))
	other := eng.Thread(pool.NewThread(2))
	n1, i1 := fakeNode(th.Ctx(), 1)
	_, i2 := fakeNode(th.Ctx(), 2)

	// A competing operation has already tagged node 2.
	otherD := other.NewDesc(9, 1, []AffectEntry{{InfoField: i2, Observed: 0, Untag: true}}, nil, nil)
	other.Ctx().Store(i2, Tagged(otherD))

	th.BeginOp()
	d := th.NewDesc(1, 1,
		[]AffectEntry{{InfoField: i1, Observed: 0, Untag: true}, {InfoField: i2, Observed: 0, Untag: true}},
		[]WriteEntry{{Field: n1, Old: 1, New: 2}}, nil)
	th.Publish(d)
	th.Help(d)

	if r := th.Result(d); r != Bottom {
		t.Fatalf("contended op claimed result %d", r)
	}
	if v := th.Ctx().Load(n1); v != 1 {
		t.Fatalf("contended op applied its write: %d", v)
	}
	if v := th.Ctx().Load(i1); v != Untagged(d) {
		t.Fatalf("backtrack left node 1 info = %#x", v)
	}
	if v := th.Ctx().Load(i2); v != Tagged(otherD) {
		t.Fatalf("backtrack touched the other op's tag: %#x", v)
	}
}

func TestEarlyResultNotOverwritten(t *testing.T) {
	pool, eng := newEngine(t, pmem.ModeStrict)
	th := eng.Thread(pool.NewThread(1))
	_, i1 := fakeNode(th.Ctx(), 1)
	th.BeginOp()
	d := th.NewDesc(1, 1, []AffectEntry{{InfoField: i1, Observed: 0, Untag: true}}, nil, nil)
	th.SetEarlyResult(d, 42)
	th.Publish(d)
	th.Help(d) // recovery-style Help on a read-only descriptor
	if r := th.Result(d); r != 42 {
		t.Fatalf("early result overwritten: %d", r)
	}
	if v := th.Ctx().Load(i1); IsTagged(v) {
		t.Fatalf("read-only descriptor leaked a tag: %#x", v)
	}
}

// crashAt runs f under ErrCrashed recovery, triggering the crash after f
// performed its visible work, then resolves the crash with the worst-case
// policy and recovers the pool.
func crashNow(pool *pmem.Pool) {
	pool.TriggerCrash()
	pool.Crash(pmem.CrashPolicy{})
	pool.Recover()
}

func TestRecoverBeforePublishReinvokes(t *testing.T) {
	pool, eng := newEngine(t, pmem.ModeStrict)
	th := eng.Thread(pool.NewThread(1))
	n1, i1 := fakeNode(th.Ctx(), 1)
	th.BeginOp()
	d := th.NewDesc(1, 1, []AffectEntry{{InfoField: i1, Observed: 0, Untag: true}},
		[]WriteEntry{{Field: n1, Old: 1, New: 2}}, nil)
	_ = d // crash strikes before Publish
	crashNow(pool)

	th2 := Attach(pool, eng.TableAddr(), 8, "test").Thread(pool.NewThread(1))
	if _, _, ok := th2.Recover(); ok {
		t.Fatal("Recover returned a result for an unpublished op")
	}
	if v := th2.Ctx().Load(n1); v != 0 {
		// n1's payload store itself was never persisted either.
		t.Fatalf("unexpected durable payload %d", v)
	}
}

func TestRecoverCompletesPublishedOp(t *testing.T) {
	pool, eng := newEngine(t, pmem.ModeStrict)
	th := eng.Thread(pool.NewThread(1))
	ctx := th.Ctx()
	n1, i1 := fakeNode(ctx, 1)
	// Persist the fake node so it survives the crash.
	ctx.PWBRange(pmem.NoSite, n1, 2)
	ctx.PSync()

	th.BeginOp()
	d := th.NewDesc(1, 1, []AffectEntry{{InfoField: i1, Observed: 0, Untag: true}},
		[]WriteEntry{{Field: n1, Old: 1, New: 2}}, nil)
	th.Publish(d)
	// Crash strikes before Help ran at all.
	crashNow(pool)

	th2 := Attach(pool, eng.TableAddr(), 8, "test").Thread(pool.NewThread(1))
	d2, res, ok := th2.Recover()
	if !ok || res != 1 {
		t.Fatalf("Recover = (%v,%d,%v), want result 1", d2, res, ok)
	}
	if v := th2.Ctx().Load(n1); v != 2 {
		t.Fatalf("recovered op did not apply its write: %d", v)
	}
	if v := th2.Ctx().Load(i1); v != Untagged(d2) {
		t.Fatalf("recovered op did not clean up: %#x", v)
	}
}

func TestRecoverAfterPartialHelp(t *testing.T) {
	// Simulate a crash after tagging+updates persisted but before cleanup:
	// run Help fully, then clobber the volatile info back to tagged and
	// verify a recovery Help finishes cleanup idempotently.
	pool, eng := newEngine(t, pmem.ModeStrict)
	th := eng.Thread(pool.NewThread(1))
	ctx := th.Ctx()
	n1, i1 := fakeNode(ctx, 1)
	ctx.PWBRange(pmem.NoSite, n1, 2)
	ctx.PSync()
	th.BeginOp()
	d := th.NewDesc(1, 1, []AffectEntry{{InfoField: i1, Observed: 0, Untag: true}},
		[]WriteEntry{{Field: n1, Old: 1, New: 2}}, nil)
	th.Publish(d)

	// Manually run the op up to (but not including) cleanup, persisting
	// everything, as if the crash hit between result and cleanup.
	ctx.Store(i1, Tagged(d))
	ctx.PWB(pmem.NoSite, i1)
	ctx.Store(n1, 2)
	ctx.PWB(pmem.NoSite, n1)
	ctx.Store(d+descResult*pmem.WordSize, 1)
	ctx.PWB(pmem.NoSite, d+descResult*pmem.WordSize)
	ctx.PSync()
	crashNow(pool)

	th2 := Attach(pool, eng.TableAddr(), 8, "test").Thread(pool.NewThread(1))
	d2, res, ok := th2.Recover()
	if !ok || res != 1 {
		t.Fatalf("Recover = (%v,%d,%v)", d2, res, ok)
	}
	if v := th2.Ctx().Load(i1); v != Untagged(d2) {
		t.Fatalf("cleanup not finished on recovery: %#x", v)
	}
	if v := th2.Ctx().Load(n1); v != 2 {
		t.Fatalf("payload regressed: %d", v)
	}
}

func TestConcurrentHelpers(t *testing.T) {
	pool, eng := newEngine(t, pmem.ModeFast)
	boot := eng.Thread(pool.NewThread(0))
	n1, i1 := fakeNode(boot.Ctx(), 1)
	boot.BeginOp()
	d := boot.NewDesc(1, 1, []AffectEntry{{InfoField: i1, Observed: 0, Untag: true}},
		[]WriteEntry{{Field: n1, Old: 1, New: 2}}, nil)
	boot.Publish(d)

	var wg sync.WaitGroup
	for tid := 1; tid < 5; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			th := eng.Thread(pool.NewThread(tid))
			th.Help(d)
		}(tid)
	}
	wg.Wait()
	if r := boot.Result(d); r != 1 {
		t.Fatalf("result = %d", r)
	}
	if v := boot.Ctx().Load(n1); v != 2 {
		t.Fatalf("payload = %d (applied more than once or not at all)", v)
	}
	if v := boot.Ctx().Load(i1); v != Untagged(d) {
		t.Fatalf("info = %#x", v)
	}
}

// TestQuickCountsPacking checks the descriptor count packing for arbitrary
// (bounded) set sizes.
func TestQuickCountsPacking(t *testing.T) {
	pool, eng := newEngine(t, pmem.ModeStrict)
	th := eng.Thread(pool.NewThread(1))
	_, info := fakeNode(th.Ctx(), 0)
	f := func(a, w, n uint8) bool {
		nA, nW, nN := int(a%5), int(w%5), int(n%5)
		affect := make([]AffectEntry, nA)
		for i := range affect {
			affect[i] = AffectEntry{InfoField: info, Observed: uint64(i)}
		}
		writes := make([]WriteEntry, nW)
		for i := range writes {
			writes[i] = WriteEntry{Field: info, Old: uint64(i), New: uint64(i + 1)}
		}
		news := make([]pmem.Addr, nN)
		for i := range news {
			news[i] = info
		}
		d := th.NewDesc(3, 1, affect, writes, news)
		gA, gW, gN := th.counts(d)
		return gA == nA && gW == nW && gN == nN &&
			th.DescWords(d) == descEntries+2*nA+3*nW+nN
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedCrashDuringHelp(t *testing.T) {
	// Drive an op whose Help is interrupted by a crash at a random pmem
	// access; recovery must either complete it (result recorded, write
	// applied, cleanup done) or report re-invoke with no visible write.
	for seed := int64(0); seed < 120; seed++ {
		pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 16, MaxThreads: 4})
		eng := New(pool, 4, "test")
		rng := rand.New(rand.NewSource(seed))

		setup := eng.Thread(pool.NewThread(1))
		n1, i1 := fakeNode(setup.Ctx(), 1)
		setup.Ctx().PWBRange(pmem.NoSite, n1, 2)
		setup.Ctx().PSync()

		pool.SetCrashAfter(int64(rng.Intn(60) + 1)) // crash at a random pmem access
		func() {
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrCrashed {
					panic(r)
				}
			}()
			th := eng.Thread(pool.NewThread(2))
			th.BeginOp()
			d := th.NewDesc(1, 1,
				[]AffectEntry{{InfoField: i1, Observed: 0, Untag: true}},
				[]WriteEntry{{Field: n1, Old: 1, New: 2}}, nil)
			th.Publish(d)
			th.Help(d)
		}()
		pool.SetCrashAfter(0)
		if pool.CrashPending() {
			pool.Crash(pmem.CrashPolicy{Rng: rng, CommitProb: 0.5, EvictProb: 0.2})
			pool.Recover()
		} else {
			// The op completed without crashing; still exercise Recover,
			// which must report the completed result.
			pool.TriggerCrash()
			pool.Crash(pmem.CrashPolicy{})
			pool.Recover()
		}

		th2 := Attach(pool, eng.TableAddr(), 4, "test").Thread(pool.NewThread(2))
		_, res, ok := th2.Recover()
		payload := th2.Ctx().Load(n1)
		if ok {
			if res != 1 {
				t.Fatalf("seed %d: recovered result %d", seed, res)
			}
			if payload != 2 {
				t.Fatalf("seed %d: result recorded but write missing (payload %d)", seed, payload)
			}
			if IsTagged(th2.Ctx().Load(i1)) {
				t.Fatalf("seed %d: recovered op left node tagged", seed)
			}
		} else {
			if payload != 1 {
				t.Fatalf("seed %d: re-invoke advised but write applied (payload %d)", seed, payload)
			}
		}
	}
}

// publishNoop publishes a one-entry descriptor with no writes on th, which
// leaves the checkpoint word durably d | 1 under every profile.
func publishNoop(th *Thread) pmem.Addr {
	_, info := fakeNode(th.Ctx(), 0)
	th.BeginOp()
	d := th.NewDesc(1, 1, []AffectEntry{{InfoField: info, Observed: 0, Untag: true}}, nil, nil)
	th.Publish(d)
	return d
}

// TestInvokeAtomicity checks the system-contract primitive: Invoke either
// has no effect (the crash preceded it) or leaves the checkpoint durably 0
// — there is no intermediate state, which is what makes "crashed before
// invocation" distinguishable from "crashed inside the operation".
func TestInvokeAtomicity(t *testing.T) {
	for _, prof := range []Profile{Paper, Default} {
		for crashAt := int64(1); crashAt <= 3; crashAt++ {
			pool, eng := newEngine(t, pmem.ModeStrict)
			eng.SetProfile(prof)
			th := eng.Thread(pool.NewThread(1))
			before := uint64(publishNoop(th)) | 1
			if v := pool.DurableLoad(th.ck); v != before {
				t.Fatalf("%s setup: durable checkpoint %#x, want %#x", prof, v, before)
			}
			pool.SetCrashAfter(crashAt)
			completed := false
			func() {
				defer func() {
					if r := recover(); r != nil && r != pmem.ErrCrashed {
						panic(r)
					}
				}()
				th.Invoke()
				completed = true
			}()
			pool.SetCrashAfter(0)
			if pool.CrashPending() {
				pool.Crash(pmem.CrashPolicy{})
				pool.Recover()
			}
			durable := pool.DurableLoad(th.ck)
			if completed && durable != 0 {
				t.Fatalf("%s crashAt=%d: Invoke returned but checkpoint durable = %#x", prof, crashAt, durable)
			}
			if !completed && durable != before {
				t.Fatalf("%s crashAt=%d: Invoke crashed but checkpoint durable = %#x (partial effect)", prof, crashAt, durable)
			}
		}
	}
}

// TestHelpersRaceWithCompletion stresses many helpers completing the same
// published operation concurrently with its initiator.
func TestHelpersRaceWithCompletion(t *testing.T) {
	for round := 0; round < 20; round++ {
		pool, eng := newEngine(t, pmem.ModeFast)
		boot := eng.Thread(pool.NewThread(0))
		n1, i1 := fakeNode(boot.Ctx(), 1)
		n2, i2 := fakeNode(boot.Ctx(), 2)
		boot.BeginOp()
		d := boot.NewDesc(1, 1,
			[]AffectEntry{
				{InfoField: i1, Observed: 0, Untag: true},
				{InfoField: i2, Observed: 0, Untag: false},
			},
			[]WriteEntry{{Field: n1, Old: 1, New: 11}, {Field: n2, Old: 2, New: 22}}, nil)
		boot.Publish(d)

		var wg sync.WaitGroup
		for tid := 1; tid <= 4; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				eng.Thread(pool.NewThread(tid)).Help(d)
			}(tid)
		}
		boot.Help(d)
		wg.Wait()
		if boot.Result(d) != 1 {
			t.Fatalf("round %d: result %d", round, boot.Result(d))
		}
		if v := boot.Ctx().Load(n1); v != 11 {
			t.Fatalf("round %d: n1 = %d", round, v)
		}
		if v := boot.Ctx().Load(n2); v != 22 {
			t.Fatalf("round %d: n2 = %d", round, v)
		}
		if v := boot.Ctx().Load(i1); v != Untagged(d) {
			t.Fatalf("round %d: i1 = %#x", round, v)
		}
		if v := boot.Ctx().Load(i2); v != Tagged(d) {
			t.Fatalf("round %d: i2 = %#x (removed node must stay tagged)", round, v)
		}
	}
}

// TestRecoverAfterBacktrackReinvokes pins the argument that lets an update
// which published an attempt, backtracked, and then resolved read-only
// return with CP = 1 and RD naming the failed attempt: a recovery Help of
// that attempt fails again — its observed info value never recurs, and Help
// persisted the foreign value before backtracking — so Recover reports
// re-invoke and the attempt's write is never applied.
func TestRecoverAfterBacktrackReinvokes(t *testing.T) {
	for _, pol := range []pmem.CrashPolicy{{}, {CommitAll: true}} {
		pool, eng := newEngine(t, pmem.ModeStrict)
		th := eng.Thread(pool.NewThread(1))
		other := eng.Thread(pool.NewThread(2))
		ctx := th.Ctx()
		n1, i1 := fakeNode(ctx, 1)
		n2, i2 := fakeNode(ctx, 2)
		ctx.PWBRange(pmem.NoSite, n1, 2)
		ctx.PWBRange(pmem.NoSite, n2, 2)
		ctx.PSync()

		th.BeginOp()
		d := th.NewDesc(1, 1,
			[]AffectEntry{{InfoField: i1, Observed: 0, Untag: true}, {InfoField: i2, Observed: 0, Untag: true}},
			[]WriteEntry{{Field: n1, Old: 1, New: 2}}, nil)
		th.Publish(d)
		// A competing operation on node 2 completes between the attempt's
		// gather and its tagging.
		other.BeginOp()
		od := other.NewDesc(9, 1, []AffectEntry{{InfoField: i2, Observed: 0, Untag: true}},
			[]WriteEntry{{Field: n2, Old: 2, New: 3}}, nil)
		other.Publish(od)
		other.Help(od)
		th.Help(d) // tags node 1, fails on node 2, backtracks
		if r := th.Result(d); r != Bottom {
			t.Fatalf("backtracked attempt claimed result %d", r)
		}
		// The operation's retry resolved read-only and is about to return:
		// CP = 1 and RD = d are what a crash now finds.
		crashNowWith(pool, pol)

		th2 := Attach(pool, eng.TableAddr(), 8, "test").Thread(pool.NewThread(1))
		if rd, _, ok := th2.Recover(); ok || rd != d {
			t.Fatalf("policy %+v: Recover = (%#x, ok=%v), want the failed attempt %#x reported re-invoke", pol, rd, ok, d)
		}
		c2 := th2.Ctx()
		if v := c2.Load(n1); v != 1 {
			t.Fatalf("policy %+v: failed attempt's write applied on recovery: %d", pol, v)
		}
		if v := c2.Load(i1); v != Untagged(d) {
			t.Fatalf("policy %+v: node 1 info = %#x, want the attempt's backtrack %#x", pol, v, Untagged(d))
		}
		if v := c2.Load(i2); v != Untagged(od) {
			t.Fatalf("policy %+v: node 2 info = %#x, want the competitor's %#x", pol, v, Untagged(od))
		}
	}
}

// crashNowWith is crashNow under an explicit adversary.
func crashNowWith(pool *pmem.Pool, pol pmem.CrashPolicy) {
	pool.TriggerCrash()
	pool.Crash(pol)
	pool.Recover()
}

// TestLateVisitFinishesTornCleanup: the cleanup untags the NewSet and the
// AffectSet in one fence epoch, so a crash may persist the AffectSet untag
// and lose the NewSet one. A later Help of the completed descriptor then
// fails at tagging; it must still untag the stranded new node, or every
// operation that reaches the node helps the descriptor forever.
func TestLateVisitFinishesTornCleanup(t *testing.T) {
	pool, eng := newEngine(t, pmem.ModeStrict)
	th := eng.Thread(pool.NewThread(1))
	ctx := th.Ctx()
	n1, i1 := fakeNode(ctx, 1)
	n3, i3 := fakeNode(ctx, 3)
	ctx.PWBRange(pmem.NoSite, n1, 2)
	ctx.PSync()

	th.BeginOp()
	d := th.NewDesc(1, 1, []AffectEntry{{InfoField: i1, Observed: 0, Untag: true}},
		[]WriteEntry{{Field: n1, Old: 1, New: 2}}, []pmem.Addr{i3})
	ctx.Store(i3, Tagged(d))
	th.Publish(d, Region{Addr: n3, Words: 2})
	th.Help(d)
	// The torn cleanup a crash can leave: node 1 durably untagged, the new
	// node's untag lost.
	ctx.Store(i3, Tagged(d))
	ctx.PWB(pmem.NoSite, i3)
	ctx.PSync()
	crashNow(pool)

	visitor := Attach(pool, eng.TableAddr(), 8, "test").Thread(pool.NewThread(2))
	visitor.Help(d)
	if v := pool.DurableLoad(i3); v != Untagged(d) {
		t.Fatalf("late visit left the new node durably %#x, want untagged %#x", v, Untagged(d))
	}
	if v := pool.DurableLoad(i1); v != Untagged(d) {
		t.Fatalf("late visit changed node 1 to %#x", v)
	}
	if _, res, ok := visitor.Recover(); ok {
		t.Fatalf("visitor thread has no operation of its own, Recover returned %d", res)
	}
	owner := Attach(pool, eng.TableAddr(), 8, "test").Thread(pool.NewThread(1))
	if _, res, ok := owner.Recover(); !ok || res != 1 {
		t.Fatalf("owner Recover = (%d, %v), want the completed result 1", res, ok)
	}
}

// TestInvokeSkipsZeroCheckpoint: Invoke persists a 0 checkpoint only when
// the word is non-zero — after a Publish, or after the Paper profile's
// BeginOp — and is a plain load otherwise.
func TestInvokeSkipsZeroCheckpoint(t *testing.T) {
	const none, begin, publish = 0, 1, 2
	for _, c := range []struct {
		prof  Profile
		steps []int
		want  []uint64
	}{
		{Paper, []int{none, begin, none, publish, begin}, []uint64{0, 1, 0, 1, 1}},
		{Default, []int{none, begin, none, publish, begin}, []uint64{0, 0, 0, 1, 0}},
	} {
		pool, eng := newEngine(t, pmem.ModeFast)
		eng.SetProfile(c.prof)
		th := eng.Thread(pool.NewThread(1))
		cpPWBs := func() uint64 { return pool.Snapshot().PWBsBySite["test/pwb-CP"] }
		for i, step := range c.steps {
			switch step {
			case begin:
				th.BeginOp()
			case publish:
				publishNoop(th)
			}
			before := cpPWBs()
			th.Invoke()
			if got := cpPWBs() - before; got != c.want[i] {
				t.Fatalf("%s step %d (%d): Invoke recorded %d pwb-CP, want %d", c.prof, i, step, got, c.want[i])
			}
		}
	}
}
