package kvstore_test

import (
	"testing"

	"repro/internal/kvstore"
	"repro/internal/pmem"
)

// BenchmarkStoreRecover times kvstore.Recover on the geometry of the
// frozen benchmark's kv-crash-recover workload: 64 shards of 2048 slots on
// a 4 M-word strict pool, 16 384 keys live. Each iteration crashes the
// quiescent pool and runs Pool.Recover outside the timer, so only the
// store's own restart (attach, slot reconciliation, RecoverGC) is timed.
// It uses only exported API, so the file runs unchanged on older trees.
func BenchmarkStoreRecover(b *testing.B) {
	const keys = 16384
	pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 4 << 20, MaxThreads: 8})
	s, err := kvstore.New(pool, kvstore.Config{Shards: 64, Buckets: 128, SlotsPerShard: 2048,
		MaxThreads: 8, ChunkBlocks: 128, MaxChunks: 8})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handle(pool.NewThread(1))
	for k := int64(0); k < keys; k++ {
		h.Invoke()
		if _, err := h.Put(2*k+1, valueFor(k), kvstore.NoExpiry); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pool.TriggerCrash()
		pool.Crash(pmem.CrashPolicy{})
		pool.Recover()
		b.StartTimer()
		if _, err := kvstore.Recover(pool, 0); err != nil {
			b.Fatal(err)
		}
	}
}
