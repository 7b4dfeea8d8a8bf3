// kvstore: a crash-safe session store built on internal/kvstore — the
// sharded, detectably recoverable key/value store (shard directory behind
// one durable root slot, embedded recoverable hash index per shard, values
// in the recoverable allocator's block plane).
//
// The example models the workload the paper's introduction motivates: a
// service ingesting records concurrently on NVMM, hit by repeated power
// failures, where after each restart the service must know exactly which
// of its in-flight writes took effect (re-executing a completed Put could,
// e.g., double-charge a client). Four worker threads churn Put/Delete/Get
// while crashes strike; every interrupted operation is resolved through
// its recovery function (RecoverPut, RecoverDelete, RecoverGet), the store
// is recovered whole — reconciliation plus leak GC fanned per shard — and
// the final contents are audited against the exactly-once oracle. A short
// epilogue shows the TTL/eviction and overwrite paths on the survived store.
//
// Every random choice derives from Seed 2026 through splitmix64: the
// operation stream is a pure function of (seed, thread, index), so the
// run — crashes included — replays identically, with no package-global
// math/rand state anywhere.
//
// Run with: go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/telemetry"
)

// seed drives every random choice in the example.
const seed = 2026

// splitmix64 is the SplitMix64 finalizer (Steele et al.); the example's
// only source of randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drawOp derives thread tid's i-th operation from the seed alone: half
// Puts, a quarter Deletes, a quarter Gets over keys [1,96]. The chaos
// harness passes its own rng, but the example ignores it so the stream is
// a pure function of (seed, tid, i).
func drawOp(tid, i int) chaos.Op {
	r := splitmix64(splitmix64(seed) + uint64(tid)<<32 + uint64(i))
	op := chaos.Op{Key: int64(splitmix64(r)%96) + 1}
	switch r % 4 {
	case 0:
		op.Kind = chaos.KindDelete
	case 1:
		op.Kind = chaos.KindFind
	default:
		op.Kind = chaos.KindInsert
	}
	return op
}

// valueFor is the deterministic value stored under a key, so a Put torn by
// a crash and replayed through RecoverPut witnesses the value it crashed
// with.
func valueFor(key int64) uint64 { return splitmix64(uint64(key)) | 1 }

// worker adapts a store handle to the chaos harness's thread interface.
type worker struct{ h *kvstore.Handle }

func (w worker) Invoke() { w.h.Invoke() }

func (w worker) Run(op chaos.Op) uint64 {
	switch op.Kind {
	case chaos.KindInsert:
		absent, err := w.h.Put(op.Key, valueFor(op.Key), kvstore.NoExpiry)
		if err != nil {
			panic(err)
		}
		return b2u(absent)
	case chaos.KindDelete:
		present, err := w.h.Delete(op.Key)
		if err != nil {
			panic(err)
		}
		return b2u(present)
	default:
		_, ok := w.h.Get(op.Key)
		return b2u(ok)
	}
}

func (w worker) Recover(op chaos.Op) uint64 {
	switch op.Kind {
	case chaos.KindInsert:
		absent, err := w.h.RecoverPut(op.Key, valueFor(op.Key), kvstore.NoExpiry)
		if err != nil {
			panic(err)
		}
		return b2u(absent)
	case chaos.KindDelete:
		present, err := w.h.RecoverDelete(op.Key)
		if err != nil {
			panic(err)
		}
		return b2u(present)
	default:
		_, ok := w.h.RecoverGet(op.Key)
		return b2u(ok)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func main() {
	const threads = 4
	pool := pmem.New(pmem.Config{
		Mode:          pmem.ModeStrict,
		CapacityWords: 1 << 21,
		MaxThreads:    threads + 2,
	})
	if _, err := kvstore.New(pool, kvstore.Config{
		Shards: 16, MaxThreads: threads + 2,
	}); err != nil {
		log.Fatal(err)
	}

	res, err := chaos.Run(chaos.Config{
		Pool:         pool,
		Threads:      threads,
		OpsPerThread: 200,
		GenOp: func(_ *rand.Rand, tid, i int) chaos.Op {
			return drawOp(tid, i)
		},
		Reattach: func(pool *pmem.Pool) (chaos.ThreadFactory, error) {
			s, err := kvstore.Recover(pool, 0)
			if err != nil {
				return nil, err
			}
			return func(tid int) (chaos.Thread, error) {
				return worker{h: s.Handle(pool.NewThread(tid))}, nil
			}, nil
		},
		Seed:                       seed,
		MaxCrashes:                 8,
		MeanAccessesBetweenCrashes: 4000,
		CommitProb:                 0.5,
		EvictProb:                  0.1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One final whole-store recovery: exactly what a restart executes.
	s, err := kvstore.Recover(pool, 0)
	if err != nil {
		log.Fatal(err)
	}
	boot := pool.NewThread(0)
	keys := s.Keys(boot)

	ops := 0
	for _, l := range res.Logs {
		ops += len(l)
	}
	rec := s.LastRecovery()
	fmt.Printf("ingested %d operations across %d threads, surviving %d crashes\n",
		ops, threads, res.Crashes)
	fmt.Printf("final store holds %d keys over %d shards\n", len(keys), s.NumShards())
	fmt.Printf("last recovery: %d slots reconciled, %d leaked blocks reclaimed, %d pwbs, %d psyncs\n",
		rec.SlotsReconciled, rec.LeaksReclaimed, rec.PWBs, rec.PSyncs)

	if err := s.CheckInvariants(boot, true); err != nil {
		log.Fatal("store invariants violated: ", err)
	}
	if err := s.AuditPostRecovery(boot); err != nil {
		log.Fatal("allocator recovery audit failed: ", err)
	}
	if err := chaos.CheckSetAlternation(res.Logs, chaos.SetClassifier, keys); err != nil {
		log.Fatal("exactly-once audit failed: ", err)
	}
	fmt.Println("audit passed: every operation took effect exactly once, despite the crashes")

	// Epilogue on the survived store: sessions with a deadline are evicted
	// in bulk through the allocator's free-stacks, and an overwrite Put
	// swaps a live key's value for a fully persisted replacement block.
	h := s.Handle(pool.NewThread(1))
	const deadline = 100
	for i := int64(0); i < 8; i++ {
		h.Invoke()
		if _, err := h.Put(1000+i, valueFor(1000+i), deadline); err != nil {
			log.Fatal(err)
		}
	}
	h.Invoke()
	evicted, err := h.EvictExpired(deadline + 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evicted %d expired sessions past their deadline\n", evicted)

	key := keys[int(splitmix64(seed+1))%len(keys)]
	old, _ := h.Get(key)
	h.Invoke()
	absent, err := h.Put(key, old+2, kvstore.NoExpiry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overwrite of key %d from %d: absent=%v\n", key, old, absent)

	reg := telemetry.NewRegistry(telemetry.Config{})
	s.PublishTelemetry(reg)
	for _, g := range reg.Snapshot().Gauges {
		switch g.Name {
		case "kvstore-blocks-live", "kvstore-evictions", "kvstore-recovery-psyncs":
			fmt.Printf("gauge %s = %d\n", g.Name, g.Value)
		}
	}
}
