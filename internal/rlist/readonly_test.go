package rlist

import (
	"math/rand"
	"testing"

	"repro/internal/pmem"
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
