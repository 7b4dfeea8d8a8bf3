package rqueue

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/pmem"
	"repro/internal/tracking"
)

// seedDrainedQueue builds a queue that held one value and was drained, with
// a thread-1 handle whose last operation was that updating Dequeue (CP = 1,
// RD naming its descriptor).
func seedDrainedQueue(t *testing.T, mode pmem.Mode) (*pmem.Pool, *Handle) {
	t.Helper()
	pool, q := newQueue(t, mode)
	h := q.Handle(pool.NewThread(1))
	h.Enqueue(1)
	if v, ok := h.Dequeue(); !ok || v != 1 {
		t.Fatalf("seed dequeue = (%d, %v)", v, ok)
	}
	return pool, h
}

// TestEmptyDequeuePersistsNothing: after the system's invocation step, a
// Dequeue on an empty queue records no write-back and no sync, and
// allocates no pool word.
func TestEmptyDequeuePersistsNothing(t *testing.T) {
	pool, h := seedDrainedQueue(t, pmem.ModeFast)
	for i := 0; i < 2; i++ {
		h.Invoke()
		base, words := pool.Snapshot(), pool.AllocatedWords()
		if v, ok := h.Dequeue(); ok || v != Empty {
			t.Fatalf("empty dequeue = (%d, %v)", v, ok)
		}
		d := pool.Snapshot().Sub(base)
		if d.PWBs != 0 || d.PWBsExecuted != 0 || d.PSyncs != 0 || d.PFences != 0 {
			t.Fatalf("empty dequeue persisted: %d pwbs (%d executed), %d psyncs, %d pfences",
				d.PWBs, d.PWBsExecuted, d.PSyncs, d.PFences)
		}
		if n := pool.AllocatedWords() - words; n != 0 {
			t.Fatalf("empty dequeue allocated %d pool words", n)
		}
	}
}

// TestEmptyDequeueCrashReexecutes crashes an empty Dequeue at every pool
// access it makes. It persisted nothing, so RecoverDequeue re-executes it:
// after another thread enqueues a value, the recovered Dequeue returns it.
func TestEmptyDequeueCrashReexecutes(t *testing.T) {
	for crashAt := int64(1); ; crashAt++ {
		if crashAt > 1000 {
			t.Fatal("empty dequeue never completed crash-free")
		}
		pool, h := seedDrainedQueue(t, pmem.ModeStrict)
		h.Invoke()
		pool.SetCrashAfter(crashAt)
		crashed := parksOnCrash(func() { h.Dequeue() })
		pool.SetCrashAfter(0)
		if !crashed {
			return // every access of the outcome has been crashed at
		}
		pool.Crash(pmem.CrashPolicy{Rng: rand.New(rand.NewSource(crashAt)), CommitProb: 0.5, EvictProb: 0.5})
		pool.Recover()
		q, err := Attach(pool, 0)
		if err != nil {
			t.Fatal(err)
		}
		q.Handle(pool.NewThread(2)).Enqueue(7)
		if v, ok := q.Handle(pool.NewThread(1)).RecoverDequeue(); !ok || v != 7 {
			t.Fatalf("crashAt=%d: recovered dequeue = (%d, %v), want the re-executed (7, true)", crashAt, v, ok)
		}
		if rest := q.Drain(pool.NewThread(0)); len(rest) != 0 {
			t.Fatalf("crashAt=%d: queue holds %v after the recovered dequeue", crashAt, rest)
		}
	}
}

// TestTornEnqueueCleanupTerminates is the regression test for a livelock
// the randomized crash harness hit (TestAdapterChaosManySeeds/rqueue, seed
// 21): an Enqueue's cleanup untags its new node and the old last node in
// one fence epoch, so a crash can persist the second untag without the
// first. The new node then stayed tagged by a completed descriptor whose
// tagging can never succeed again, and every operation reaching the node
// helped that descriptor forever. The test tears the cleanup exactly that
// way (searching the seeded adversary for the tearing choice) and requires
// the operations that reach the node to finish within a deadline.
func TestTornEnqueueCleanupTerminates(t *testing.T) {
	for seed := int64(0); seed < 256; seed++ {
		pool, q := newQueue(t, pmem.ModeStrict)
		pool.SetCrashAtSite(pool.RegisterSite("rqueue/pwb-info-cleanup"), 2)
		if !parksOnCrash(func() { q.Handle(pool.NewThread(1)).Enqueue(7) }) {
			t.Fatal("Enqueue never reached its second cleanup persist")
		}
		sent := pmem.Addr(pool.DurableLoad(q.headAddr))
		nd := pmem.Addr(pool.DurableLoad(sent + offNext))
		pool.Crash(pmem.CrashPolicy{Rng: rand.New(rand.NewSource(seed)), CommitProb: 0.5})
		if tracking.IsTagged(pool.DurableLoad(sent+offInfo)) || !tracking.IsTagged(pool.DurableLoad(nd+offInfo)) {
			continue // this adversary choice did not tear the cleanup
		}
		pool.Recover()
		done := make(chan error, 1)
		go func() { done <- finishTornQueue(pool) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("seed %d: operations reaching the stranded node livelocked", seed)
		}
		return
	}
	t.Fatal("no adversary choice tore the cleanup")
}

// finishTornQueue drives the queue of TestTornEnqueueCleanupTerminates past
// the stranded node and audits the result.
func finishTornQueue(pool *pmem.Pool) error {
	q, err := Attach(pool, 0)
	if err != nil {
		return err
	}
	h2 := q.Handle(pool.NewThread(2))
	if v, ok := h2.Dequeue(); !ok || v != 7 {
		return fmt.Errorf("dequeue = (%d, %v), want (7, true)", v, ok)
	}
	h2.Enqueue(8) // its last node is the stranded one
	if v, ok := h2.Dequeue(); !ok || v != 8 {
		return fmt.Errorf("dequeue = (%d, %v), want (8, true)", v, ok)
	}
	q.Handle(pool.NewThread(1)).RecoverEnqueue(7)
	ctx := pool.NewThread(0)
	if rest := q.Drain(ctx); len(rest) != 0 {
		return fmt.Errorf("queue holds %v, want empty", rest)
	}
	return q.CheckInvariants(ctx, true)
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

// TestEnqueueCrashFollowsCheckpoint crashes an Enqueue at every pool
// access it makes, from its invocation step through Publish's psync and on
// to its return, under four adversaries. Recover must report re-invoke
// exactly when the durable checkpoint names no descriptor — under the
// Default profile, when its bit 0 is clear — and the value must end up
// enqueued exactly once.
func TestEnqueueCrashFollowsCheckpoint(t *testing.T) {
	// The coin without evictions reaches torn epochs that an eviction
	// would force complete.
	policies := []struct {
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
	for _, prof := range []tracking.Profile{tracking.Default, tracking.Paper} {
		for _, cp := range policies {
			for crashAt := int64(1); ; crashAt++ {
				if crashAt > 1000 {
					t.Fatalf("%s/%s: Enqueue never completed crash-free", prof, cp.name)
				}
				// A small pool: the test rebuilds it at every crash point.
				pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 12, MaxThreads: 4})
				q := New(pool, 4, 0)
				q.eng.SetProfile(prof)
				h := q.Handle(pool.NewThread(1))
				h.Enqueue(1)
				pool.SetCrashAfter(crashAt)
				invoked := false
				crashed := parksOnCrash(func() {
					h.Invoke()
					invoked = true
					h.Enqueue(2)
				})
				pool.SetCrashAfter(0)
				if !crashed {
					break
				}
				pool.Crash(cp.pol(crashAt))
				pool.Recover()
				q2, err := Attach(pool, 0)
				if err != nil {
					t.Fatal(err)
				}
				q2.eng.SetProfile(prof)
				h2 := q2.Handle(pool.NewThread(1))
				// A crash before the invocation completed leaves ok false:
				// the system re-invokes the operation without recovering it.
				ok := false
				if invoked {
					// Thread 1's checkpoint word: word 0 of the table's line 1.
					w := pool.DurableLoad(q2.eng.TableAddr() + pmem.LineBytes)
					if prof == tracking.Default && w == 1 {
						t.Fatalf("%s crashAt=%d: durable checkpoint 1 (CP = 1, RD = Null), which only BeginOp writes", cp.name, crashAt)
					}
					published := w&1 == 1 && w != 1
					if _, _, ok = h2.th.Recover(); ok != published {
						t.Fatalf("%s/%s crashAt=%d: Recover ok=%v with durable checkpoint %#x", prof, cp.name, crashAt, ok, w)
					}
				}
				if !ok {
					h2.Enqueue(2)
				}
				ctx := pool.NewThread(0)
				if err := q2.CheckInvariants(ctx, true); err != nil {
					t.Fatalf("%s/%s crashAt=%d: %v", prof, cp.name, crashAt, err)
				}
				if got := q2.Drain(ctx); len(got) != 2 || got[0] != 1 || got[1] != 2 {
					t.Fatalf("%s/%s crashAt=%d: queue %v, want [1 2]", prof, cp.name, crashAt, got)
				}
			}
		}
	}
}
