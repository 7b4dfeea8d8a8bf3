package rbst

import (
	"math/rand"
	"testing"

	"repro/internal/chaos"
	"repro/internal/pmem"
)

// readOnlyCases are the tree's read-only outcomes over the keys {10, 20}.
// flip is an update another thread applies after a crash, so that the
// re-executed outcome's answer differs from the one the crashed run saw.
var readOnlyCases = []struct {
	name     string
	op, flip chaos.Op
}{
	{"Find(present)", chaos.Op{Kind: chaos.KindFind, Key: 10}, chaos.Op{Kind: chaos.KindDelete, Key: 10}},
	{"Find(absent)", chaos.Op{Kind: chaos.KindFind, Key: 15}, chaos.Op{Kind: chaos.KindInsert, Key: 15}},
	{"Insert(present)", chaos.Op{Kind: chaos.KindInsert, Key: 20}, chaos.Op{Kind: chaos.KindDelete, Key: 20}},
	{"Delete(absent)", chaos.Op{Kind: chaos.KindDelete, Key: 15}, chaos.Op{Kind: chaos.KindInsert, Key: 15}},
}

// applySet applies a set operation to a membership model and returns the
// response it must produce, encoded as the harness records it.
func applySet(model map[int64]bool, op chaos.Op) uint64 {
	present := model[op.Key]
	switch op.Kind {
	case chaos.KindInsert:
		model[op.Key] = true
		return b2u(!present)
	case chaos.KindDelete:
		delete(model, op.Key)
		return b2u(present)
	default:
		return b2u(present)
	}
}

// seedTree builds a tree holding {10, 20} and a thread-1 handle whose last
// operation was an update (CP = 1, RD naming its descriptor).
func seedTree(t *testing.T, mode pmem.Mode) (*pmem.Pool, *Handle) {
	t.Helper()
	pool, tr := newTree(t, mode)
	h := tr.Handle(pool.NewThread(1))
	h.Insert(10)
	h.Insert(20)
	return pool, h
}

// TestReadOnlyOutcomesPersistNothing: after the system's invocation step, a
// Find, an Insert of a present key and a Delete of an absent key record no
// write-back and no sync, and allocate no pool word.
func TestReadOnlyOutcomesPersistNothing(t *testing.T) {
	pool, h := seedTree(t, pmem.ModeFast)
	model := map[int64]bool{10: true, 20: true}
	for _, c := range readOnlyCases {
		h.Invoke()
		base, words := pool.Snapshot(), pool.AllocatedWords()
		if got, want := (treeThread{h}).Run(c.op), applySet(model, c.op); got != want {
			t.Fatalf("%s = %d, want %d", c.name, got, want)
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

// TestReadOnlyCrashReexecutes crashes each read-only outcome at every pool
// access it makes; its recovery function must re-execute it against the
// state another thread flipped after the crash.
func TestReadOnlyCrashReexecutes(t *testing.T) {
	for _, c := range readOnlyCases {
		for crashAt := int64(1); ; crashAt++ {
			if crashAt > 1000 {
				t.Fatalf("%s never completed crash-free", c.name)
			}
			pool, h := seedTree(t, pmem.ModeStrict)
			h.Invoke()
			pool.SetCrashAfter(crashAt)
			crashed := parksOnCrash(func() { (treeThread{h}).Run(c.op) })
			pool.SetCrashAfter(0)
			if !crashed {
				break // every access of the outcome has been crashed at
			}
			pool.Crash(pmem.CrashPolicy{Rng: rand.New(rand.NewSource(crashAt)), CommitProb: 0.5, EvictProb: 0.5})
			pool.Recover()
			tr, err := Attach(pool, 0)
			if err != nil {
				t.Fatal(err)
			}
			model := map[int64]bool{10: true, 20: true}
			if got, want := (treeThread{tr.Handle(pool.NewThread(2))}).Run(c.flip), applySet(model, c.flip); got != want {
				t.Fatalf("%s crashAt=%d: flip = %d, want %d", c.name, crashAt, got, want)
			}
			if got, want := (treeThread{tr.Handle(pool.NewThread(1))}).Recover(c.op), applySet(model, c.op); got != want {
				t.Fatalf("%s crashAt=%d: recovered %d, want the re-executed %d", c.name, crashAt, got, want)
			}
			keys := tr.Keys(pool.NewThread(0))
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
