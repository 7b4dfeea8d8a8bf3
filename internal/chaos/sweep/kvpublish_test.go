package sweep

import (
	"testing"

	"repro/internal/kvstore"
	"repro/internal/pmem"
)

// TestKVFirstObserverRace stages the kvstore publish window under the
// strict crash machinery and checks what the slot's first observer sees:
// thread 1's Put crashes at its slot-publish persist with everything
// committed. The publish is stage 1 of the put protocol, before the index
// insert that linearizes membership, so thread 2's concurrent Get — the
// first observer of the published slot — must answer absent; the writer's
// RecoverPut then completes the protocol and the key reads back.
func TestKVFirstObserverRace(t *testing.T) {
	t.Run("strict", testKVPublishCrashGetAbsentRecoverPut)
}

func testKVPublishCrashGetAbsentRecoverPut(t *testing.T) {
	pool := pmem.New(pmem.Config{
		Mode: pmem.ModeStrict, CapacityWords: 1 << 18, MaxThreads: 8,
	})
	cfg := kvstore.Config{
		Shards: 2, Buckets: 2, SlotsPerShard: 8,
		MaxThreads: 8, ChunkBlocks: 8, MaxChunks: 4,
	}
	if _, err := kvstore.New(pool, cfg); err != nil {
		t.Fatal(err)
	}
	p := &Provoker{pool: pool}
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
	s, err := kvstore.Recover(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Handle(pool.NewThread(2))
	g.Invoke()
	if got, ok := g.Get(7); ok {
		t.Fatalf("Get(7) after publish crash = %d, true; the index insert never ran, want absent", got)
	}
	s, err = kvstore.Recover(pool, 0)
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
}
