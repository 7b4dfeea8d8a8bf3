package kvstore_test

import (
	"testing"

	"repro/internal/kvstore"
	"repro/internal/pmem"
)

// BenchmarkStoreRecover times kvstore.Recover on the geometries of two of
// the frozen benchmark's workloads:
//
//   - kv-crash-recover: 64 shards of 2048 slots on a 4 M-word strict pool,
//     16 384 keys live. Each iteration crashes the quiescent pool and runs
//     Pool.Recover outside the timer.
//   - kv-read-heavy: 64 shards of 4096 slots, 256 buckets, on a 12 M-word
//     fast pool, 32 768 keys live — the clean restart that workload times.
//     A fast pool cannot crash, so each iteration recovers the live image.
//
// Only the store's own restart (attach, slot reconciliation, RecoverGC) is
// timed. It uses only exported API, so the file runs unchanged on older
// trees.
func BenchmarkStoreRecover(b *testing.B) {
	cases := []struct {
		name  string
		mode  pmem.Mode
		words int
		keys  int64
		cfg   kvstore.Config
	}{
		{"kv-crash-recover", pmem.ModeStrict, 4 << 20, 16384, kvstore.Config{Shards: 64, Buckets: 128,
			SlotsPerShard: 2048, MaxThreads: 8, ChunkBlocks: 128, MaxChunks: 8}},
		{"kv-read-heavy", pmem.ModeFast, 12 << 20, 32768, kvstore.Config{Shards: 64, Buckets: 256,
			SlotsPerShard: 4096, MaxThreads: 8, ChunkBlocks: 256, MaxChunks: 8}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			pool := pmem.New(pmem.Config{Mode: c.mode, CapacityWords: c.words, MaxThreads: 8})
			s, err := kvstore.New(pool, c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			h := s.Handle(pool.NewThread(1))
			for k := int64(0); k < c.keys; k++ {
				h.Invoke()
				if _, err := h.Put(2*k+1, valueFor(k), kvstore.NoExpiry); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.mode == pmem.ModeStrict {
					b.StopTimer()
					pool.TriggerCrash()
					pool.Crash(pmem.CrashPolicy{})
					pool.Recover()
					b.StartTimer()
				}
				if _, err := kvstore.Recover(pool, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
