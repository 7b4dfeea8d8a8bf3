package sweep

import (
	"testing"

	"repro/internal/kvstore"
	"repro/internal/pmem"
)

// kvObserverConfig is the small store both legs of the first-observer race
// test use.
func kvObserverConfig() kvstore.Config {
	return kvstore.Config{
		Shards: 2, Buckets: 2, SlotsPerShard: 8,
		MaxThreads: 8, ChunkBlocks: 8, MaxChunks: 4,
	}
}

// TestKVFirstObserverRace provokes the kvstore publish-window race behind
// the "kvstore/pwb-slot-observed" site deterministically, in both modes.
//
// Fast mode: thread 1's Put stores the slot word with the dirty tag but its
// own flush is suppressed (the deterministic stand-in for the writer dying
// between the dirty store and its write-back). Thread 2's Get reads the
// value past the tag and must record nothing and leave the tag: reads
// persist nothing. Thread 2's failing CAS is then the first observer: its
// probe read must issue the line's flush, record the observed site and
// clear the tag — and later probes of the now-clean word must not record
// again.
//
// Strict mode: the same window under the real crash machinery — thread 1's
// Put crashes at its slot-publish persist with everything committed. The
// publish is stage 1 of the put protocol, before the index insert that
// linearizes membership, so the observer's Get must answer absent; the
// writer's RecoverPut then completes the protocol. Along the way the
// observed site must NOT record (strict pools never set the dirty tag),
// which is the structural fact behind the kvstore adapter's Unreachable
// declaration.
func TestKVFirstObserverRace(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		pool := pmem.New(pmem.Config{
			Mode: pmem.ModeFast, CapacityWords: 1 << 18, MaxThreads: 8,
		})
		pool.SetFlushAvoid(true)
		s, err := kvstore.New(pool, kvObserverConfig())
		if err != nil {
			t.Fatal(err)
		}
		slotSite := pool.RegisterSite("kvstore/pwb-slot")

		// Thread 1 publishes key 7 with its own slot flush suppressed: the
		// slot word stays dirty-tagged, exactly as if the writer died after
		// the store but before the write-back.
		w := s.Handle(pool.NewThread(1))
		w.Invoke()
		pool.SetSiteEnabled(slotSite, false)
		if _, err := w.Put(7, 777, kvstore.NoExpiry); err != nil {
			t.Fatal(err)
		}
		pool.SetSiteEnabled(slotSite, true)
		before := pool.Snapshot().PWBsBySite["kvstore/pwb-slot-observed"]

		// Thread 2's Get masks the tag: it reads the value, flushes nothing.
		g := s.Handle(pool.NewThread(2))
		g.Invoke()
		if v, ok := g.Get(7); !ok || v != 777 {
			t.Fatalf("Get(7) = %d, %v, want 777, true", v, ok)
		}
		if got := pool.Snapshot().PWBsBySite["kvstore/pwb-slot-observed"]; got != before {
			t.Fatalf("observed-site hits %d -> %d on a Get, want no flush from a read", before, got)
		}

		// Thread 2's CAS is the first observer: its probe read flushes the line.
		g.Invoke()
		if ok, err := g.CAS(7, 1, 2); err != nil || ok {
			t.Fatalf("observer CAS(7, 1, 2) = %v, %v, want false, nil", ok, err)
		}
		after := pool.Snapshot().PWBsBySite["kvstore/pwb-slot-observed"]
		if after != before+1 {
			t.Fatalf("observed-site hits %d -> %d, want exactly one first-observer flush", before, after)
		}

		// The tag is cleared: a second probe takes the clean fast path and
		// records nothing.
		g.Invoke()
		if ok, err := g.CAS(7, 1, 2); err != nil || ok {
			t.Fatalf("second CAS(7, 1, 2) = %v, %v, want false, nil", ok, err)
		}
		if again := pool.Snapshot().PWBsBySite["kvstore/pwb-slot-observed"]; again != after {
			t.Fatalf("observed-site hits grew %d -> %d on a clean word", after, again)
		}
		g.Invoke()
		if v, ok := g.Get(7); !ok || v != 777 {
			t.Fatalf("final Get(7) = %d, %v, want 777, true", v, ok)
		}
	})

	t.Run("strict", func(t *testing.T) {
		pool := pmem.New(pmem.Config{
			Mode: pmem.ModeStrict, CapacityWords: 1 << 18, MaxThreads: 8,
		})
		if _, err := kvstore.New(pool, kvObserverConfig()); err != nil {
			t.Fatal(err)
		}
		p := &Provoker{
			pool: pool, site: "kvstore/pwb-slot-observed", hit: 1, depth: 1,
			policy: func() pmem.CrashPolicy { return pmem.CrashPolicy{CommitAll: true} },
		}
		if err := p.Stage("kvstore/pwb-slot", 1, func() error {
			s, err := kvstore.Recover(pool, 0)
			if err != nil {
				return err
			}
			w := s.Handle(pool.NewThread(1))
			w.Invoke()
			_, err = w.Put(7, 777, kvstore.NoExpiry)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		var got uint64
		var ok bool
		if err := p.Target(func() error {
			s, err := kvstore.Recover(pool, 0)
			if err != nil {
				return err
			}
			g := s.Handle(pool.NewThread(2))
			g.Invoke()
			got, ok = g.Get(7)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("observer Get(7) after publish crash = %d, true; the index insert never ran, want absent", got)
		}
		if p.fired != 0 {
			t.Fatalf("observed site fired %d times in ModeStrict; the sweep's Unreachable declaration is wrong", p.fired)
		}
		s, err := kvstore.Recover(pool, 0)
		if err != nil {
			t.Fatal(err)
		}
		w := s.Handle(pool.NewThread(1))
		w.Invoke()
		if _, err := w.RecoverPut(7, 777, kvstore.NoExpiry); err != nil {
			t.Fatal(err)
		}
		boot := pool.NewThread(0)
		if v, ok := s.Handle(pool.NewThread(2)).Get(7); !ok || v != 777 {
			t.Fatalf("final Get(7) = %d, %v, want 777, true", v, ok)
		}
		if err := s.CheckInvariants(boot, true); err != nil {
			t.Fatal(err)
		}
		if err := s.AuditPostRecovery(boot); err != nil {
			t.Fatal(err)
		}
	})
}
