package rlist

import (
	"math/rand"
	"testing"

	"repro/internal/pmem"
	"repro/internal/tracking"
)

// readOnlyCases are the list's read-only outcomes over the keys {10, 20}.
// flip is an update another thread applies after a crash, so that the
// re-executed outcome's answer differs from the one the crashed run saw.
var readOnlyCases = []struct {
	name     string
	op, flip scriptOp
}{
	{"Find(present)", scriptOp{opFnd, 10}, scriptOp{opDel, 10}},
	{"Find(absent)", scriptOp{opFnd, 15}, scriptOp{opIns, 15}},
	{"Insert(present)", scriptOp{opIns, 20}, scriptOp{opDel, 20}},
	{"Delete(absent)", scriptOp{opDel, 15}, scriptOp{opIns, 15}},
}

// seedList builds a list holding {10, 20} and a thread-1 handle whose
// last operation was an update (CP = 1, RD naming its descriptor).
func seedList(t *testing.T, mode pmem.Mode) (*pmem.Pool, *List, *Handle) {
	t.Helper()
	pool, l := newList(t, mode)
	h := l.Handle(pool.NewThread(1))
	h.Insert(10)
	h.Insert(20)
	return pool, l, h
}

// TestReadOnlyOutcomesPersistNothing: after the system's invocation step, a
// Find, an Insert of a present key and a Delete of an absent key record no
// write-back and no sync, and allocate no pool word.
func TestReadOnlyOutcomesPersistNothing(t *testing.T) {
	pool, _, h := seedList(t, pmem.ModeFast)
	model := map[int64]bool{10: true, 20: true}
	for _, c := range readOnlyCases {
		h.Invoke()
		base, words := pool.Snapshot(), pool.AllocatedWords()
		if got, want := runOp(h, c.op), applyModel(model, c.op); got != want {
			t.Fatalf("%s = %v, want %v", c.name, got, want)
		}
		d := pool.Snapshot().Sub(base)
		if d.PWBs != 0 || d.PWBsExecuted != 0 || d.PSyncs != 0 || d.PFences != 0 {
			t.Errorf("%s persisted: %d pwbs (%d executed), %d psyncs, %d pfences",
				c.name, d.PWBs, d.PWBsExecuted, d.PSyncs, d.PFences)
		}
		if n := pool.AllocatedWords() - words; n != 0 {
			t.Errorf("%s allocated %d pool words", c.name, n)
		}
	}
}

// TestInvokeAfterReadOnlyIsFree: the invocation step after a read-only
// outcome records no pwb-CP (CP already reads 0); after an update it
// records exactly one.
func TestInvokeAfterReadOnlyIsFree(t *testing.T) {
	pool, _, h := seedList(t, pmem.ModeFast)
	cp := func() uint64 { return pool.Snapshot().PWBsBySite["rlist/pwb-CP"] }
	for _, c := range []struct {
		op   scriptOp
		want uint64
	}{
		{scriptOp{opFnd, 10}, 0},
		{scriptOp{opIns, 30}, 1},
		{scriptOp{opIns, 30}, 0},
		{scriptOp{opDel, 30}, 1},
		{scriptOp{opDel, 30}, 0},
		{scriptOp{opFnd, 30}, 0},
	} {
		runOp(h, c.op)
		before := cp()
		h.Invoke()
		if got := cp() - before; got != c.want {
			t.Fatalf("Invoke after %v %d recorded %d pwb-CP, want %d", c.op.kind, c.op.key, got, c.want)
		}
	}
}

// TestFindAllocatesNothing pins the default read path to zero heap
// allocations: no descriptor, no AffectSet slice.
func TestFindAllocatesNothing(t *testing.T) {
	pool, l := newList(t, pmem.ModeFast)
	h := l.Handle(pool.NewThread(1))
	for k := int64(2); k <= 64; k += 2 {
		h.Insert(k)
	}
	if n := testing.AllocsPerRun(200, func() {
		h.Find(31)
		h.Find(32)
	}); n != 0 {
		t.Fatalf("Find allocates %.1f objects per run, want 0", n)
	}
}

// TestReadOnlyCrashReexecutes crashes each read-only outcome at every pool
// access it makes. The outcome persisted nothing — CP still reads 0 — so
// whatever the adversary keeps, its recovery function re-executes it:
// another thread first flips the answer, and the recovered response (and
// the final key set) must follow the flipped state, not the crashed run's.
func TestReadOnlyCrashReexecutes(t *testing.T) {
	for _, c := range readOnlyCases {
		for crashAt := int64(1); ; crashAt++ {
			if crashAt > 1000 {
				t.Fatalf("%s never completed crash-free", c.name)
			}
			pool, _, h := seedList(t, pmem.ModeStrict)
			h.Invoke()
			pool.SetCrashAfter(crashAt)
			crashed := parksOnCrash(func() { runOp(h, c.op) })
			pool.SetCrashAfter(0)
			if !crashed {
				break // every access of the outcome has been crashed at
			}
			pool.Crash(pmem.CrashPolicy{Rng: rand.New(rand.NewSource(crashAt)), CommitProb: 0.5, EvictProb: 0.5})
			pool.Recover()
			l2, err := Attach(pool, 0)
			if err != nil {
				t.Fatal(err)
			}
			model := map[int64]bool{10: true, 20: true}
			flip := l2.Handle(pool.NewThread(2))
			if got, want := runOp(flip, c.flip), applyModel(model, c.flip); got != want {
				t.Fatalf("%s crashAt=%d: flip %v = %v, want %v", c.name, crashAt, c.flip, got, want)
			}
			h2 := l2.Handle(pool.NewThread(1))
			if got, want := recoverOp(h2, c.op), applyModel(model, c.op); got != want {
				t.Fatalf("%s crashAt=%d: recovered %v, want the re-executed %v", c.name, crashAt, got, want)
			}
			keys := l2.Keys(h2.ctx)
			if len(keys) != len(model) {
				t.Fatalf("%s crashAt=%d: keys %v, model %v", c.name, crashAt, keys, model)
			}
			for _, k := range keys {
				if !model[k] {
					t.Fatalf("%s crashAt=%d: keys %v, model %v", c.name, crashAt, keys, model)
				}
			}
		}
	}
}

// parksOnCrash runs f and reports whether it parked on an injected crash.
func parksOnCrash(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != pmem.ErrCrashed {
				panic(r)
			}
			crashed = true
		}
	}()
	f()
	return false
}

// crashPolicies are the adversaries the checkpoint crash tests resolve
// each crash with: drop every pending write-back, commit every one, a
// seeded coin per line, and the coin without evictions — evicting any line
// forces its writer's scheduled write-backs, which would mask a torn epoch.
var crashPolicies = []struct {
	name string
	pol  func(seed int64) pmem.CrashPolicy
}{
	{"drop-all", func(int64) pmem.CrashPolicy { return pmem.CrashPolicy{} }},
	{"commit-all", func(int64) pmem.CrashPolicy { return pmem.CrashPolicy{CommitAll: true} }},
	{"coin", func(seed int64) pmem.CrashPolicy {
		return pmem.CrashPolicy{Rng: rand.New(rand.NewSource(seed)), CommitProb: 0.5, EvictProb: 0.5}
	}},
	{"coin-no-evict", func(seed int64) pmem.CrashPolicy {
		return pmem.CrashPolicy{Rng: rand.New(rand.NewSource(seed)), CommitProb: 0.5}
	}},
}

// TestInsertCrashFollowsCheckpoint crashes a successful Insert at every
// pool access it makes, from its invocation step through Publish's psync
// and on to its return. Recover must report re-invoke exactly when the
// durable checkpoint names no descriptor — under the Default profile, when
// its bit 0 is clear — and the recovered or re-invoked Insert must take
// effect exactly once.
func TestInsertCrashFollowsCheckpoint(t *testing.T) {
	for _, prof := range []tracking.Profile{tracking.Default, tracking.Paper} {
		for _, cp := range crashPolicies {
			for crashAt := int64(1); ; crashAt++ {
				if crashAt > 1000 {
					t.Fatalf("%s/%s: Insert never completed crash-free", prof, cp.name)
				}
				// A small pool: the test rebuilds it at every crash point.
				pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 12, MaxThreads: 4})
				l := New(pool, 4, 0)
				l.Engine().SetProfile(prof)
				h := l.Handle(pool.NewThread(1))
				h.Insert(10)
				h.Insert(20)
				pool.SetCrashAfter(crashAt)
				invoked := false
				crashed := parksOnCrash(func() {
					h.Invoke()
					invoked = true
					h.Insert(15)
				})
				pool.SetCrashAfter(0)
				if !crashed {
					break
				}
				pool.Crash(cp.pol(crashAt))
				pool.Recover()
				l2, err := Attach(pool, 0)
				if err != nil {
					t.Fatal(err)
				}
				l2.Engine().SetProfile(prof)
				h2 := l2.Handle(pool.NewThread(1))
				// A crash before the invocation completed leaves ok false:
				// the system re-invokes the operation without recovering it.
				var res, ok bool
				if invoked {
					// Thread 1's checkpoint word: word 0 of the table's line 1.
					w := pool.DurableLoad(l2.Engine().TableAddr() + pmem.LineBytes)
					if prof == tracking.Default && w == 1 {
						t.Fatalf("%s crashAt=%d: durable checkpoint 1 (CP = 1, RD = Null), which only BeginOp writes", cp.name, crashAt)
					}
					published := w&1 == 1 && w != 1
					if res, ok = h2.Settled(); ok != published {
						t.Fatalf("%s/%s crashAt=%d: Recover ok=%v with durable checkpoint %#x", prof, cp.name, crashAt, ok, w)
					}
					if ok && !res {
						t.Fatalf("%s/%s crashAt=%d: recovered Insert(15) = false", prof, cp.name, crashAt)
					}
				}
				if !ok && !h2.Insert(15) {
					t.Fatalf("%s/%s crashAt=%d: re-invoked Insert(15) = false: the crashed run took effect", prof, cp.name, crashAt)
				}
				ctx := pool.NewThread(0)
				if err := l2.CheckInvariants(ctx, true); err != nil {
					t.Fatalf("%s/%s crashAt=%d: %v", prof, cp.name, crashAt, err)
				}
				if keys := l2.Keys(ctx); len(keys) != 3 || keys[0] != 10 || keys[1] != 15 || keys[2] != 20 {
					t.Fatalf("%s/%s crashAt=%d: keys %v, want [10 15 20]", prof, cp.name, crashAt, keys)
				}
			}
		}
	}
}

// TestUpdateSkipsBeginOpCost pins the saving of the Default profile
// exactly: a successful Insert costs what it costs under Paper minus
// BeginOp's two pwbs, one pfence and one psync.
func TestUpdateSkipsBeginOpCost(t *testing.T) {
	cost := func(prof tracking.Profile) pmem.Stats {
		pool, l, h := seedList(t, pmem.ModeFast)
		l.Engine().SetProfile(prof)
		base := pool.Snapshot()
		if !h.Insert(15) {
			t.Fatalf("%s: Insert(15) = false", prof)
		}
		return pool.Snapshot().Sub(base)
	}
	paper, def := cost(tracking.Paper), cost(tracking.Default)
	if def.PWBs != paper.PWBs-2 || def.PFences != paper.PFences-1 || def.PSyncs != paper.PSyncs-1 {
		t.Fatalf("Default Insert: %d pwbs, %d pfences, %d psyncs; Paper: %d, %d, %d; want Paper - 2, - 1, - 1",
			def.PWBs, def.PFences, def.PSyncs, paper.PWBs, paper.PFences, paper.PSyncs)
	}
	for _, site := range []string{"rlist/pwb-CP", "rlist/pwb-RD"} {
		if d := paper.PWBsBySite[site] - def.PWBsBySite[site]; d != 1 {
			t.Fatalf("%s: Paper - Default = %d pwbs, want BeginOp's 1", site, d)
		}
	}
}
