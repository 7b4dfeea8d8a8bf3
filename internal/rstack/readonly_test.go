package rstack

import (
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// seedDrainedStack builds a stack that held one value and was drained,
// with a thread-1 handle whose last operation was that updating Pop (CP =
// 1, RD naming its descriptor).
func seedDrainedStack(t *testing.T, mode pmem.Mode) (*pmem.Pool, *Handle) {
	t.Helper()
	pool, s := newStack(t, mode)
	h := s.Handle(pool.NewThread(1))
	h.Push(1)
	if v, ok := h.Pop(); !ok || v != 1 {
		t.Fatalf("seed pop = (%d, %v)", v, ok)
	}
	return pool, h
}

// TestEmptyPopPersistsNothing: after the system's invocation step, a Pop
// on an empty stack records no write-back and no sync, and allocates no
// pool word.
func TestEmptyPopPersistsNothing(t *testing.T) {
	pool, h := seedDrainedStack(t, pmem.ModeFast)
	for i := 0; i < 2; i++ {
		h.Invoke()
		base, words := pool.Snapshot(), pool.AllocatedWords()
		if v, ok := h.Pop(); ok || v != Empty {
			t.Fatalf("empty pop = (%d, %v)", v, ok)
		}
		d := pool.Snapshot().Sub(base)
		if d.PWBs != 0 || d.PWBsExecuted != 0 || d.PSyncs != 0 || d.PFences != 0 {
			t.Fatalf("empty pop persisted: %d pwbs (%d executed), %d psyncs, %d pfences",
				d.PWBs, d.PWBsExecuted, d.PSyncs, d.PFences)
		}
		if n := pool.AllocatedWords() - words; n != 0 {
			t.Fatalf("empty pop allocated %d pool words", n)
		}
	}
}

// TestEmptyPopCrashReexecutes crashes an empty Pop at every pool access it
// makes. It persisted nothing, so RecoverPop re-executes it: after another
// thread pushes a value, the recovered Pop returns it.
func TestEmptyPopCrashReexecutes(t *testing.T) {
	for crashAt := int64(1); ; crashAt++ {
		if crashAt > 1000 {
			t.Fatal("empty pop never completed crash-free")
		}
		pool, h := seedDrainedStack(t, pmem.ModeStrict)
		h.Invoke()
		pool.SetCrashAfter(crashAt)
		crashed := parksOnCrash(func() { h.Pop() })
		pool.SetCrashAfter(0)
		if !crashed {
			return // every access of the outcome has been crashed at
		}
		pool.Crash(pmem.CrashPolicy{Rng: rand.New(rand.NewSource(crashAt)), CommitProb: 0.5, EvictProb: 0.5})
		pool.Recover()
		s, err := Attach(pool, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Handle(pool.NewThread(2)).Push(7)
		if v, ok := s.Handle(pool.NewThread(1)).RecoverPop(); !ok || v != 7 {
			t.Fatalf("crashAt=%d: recovered pop = (%d, %v), want the re-executed (7, true)", crashAt, v, ok)
		}
		if rest := s.Snapshot(pool.NewThread(0)); len(rest) != 0 {
			t.Fatalf("crashAt=%d: stack holds %v after the recovered pop", crashAt, rest)
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
