package sweep

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/kvstore"
	"repro/internal/pmem"
)

// The kvstore adapter sweeps the sharded key/value store's own persist
// points — "kvstore/pwb-val" (block persist before publish),
// "kvstore/pwb-slot" (slot publish / tombstone) and "kvstore/pwb-ttl"
// (expiry stamp) — across a store wide enough that reconciliation and
// RecoverGC run per shard. The workload is the standard set workload:
// KindInsert maps to Put with a key-derived value and no expiry (eviction
// never interferes with the membership oracle), KindDelete to Delete,
// KindFind to Get, so the store's membership obeys the same exactly-once
// alternation oracle as the set structures — checked per shard after
// partitioning the history and the surviving keys by the store's own
// shard routing. The index's tracking windows are swept separately by the
// rhash adapter; the value allocator's by the rmm adapter.
const (
	kvShards        = 32
	kvBuckets       = 4
	kvSlotsPerShard = 16
	kvChunkBlocks   = 8
	kvMaxChunks     = 4
	kvKeyRange      = 48
	// kvOpFailed is the log sentinel for an operation the store rejected
	// (ErrFull or an allocator fault) — validation turns it into a
	// violation.
	kvOpFailed = ^uint64(0)
)

// kvValueFor derives the deterministic value the sweep stores under a
// key, so a torn Put replayed through RecoverPut witnesses the same value
// it crashed with.
func kvValueFor(key int64) uint64 { return uint64(key)*0x9e3779b97f4a7c15 + 1 }

// kvSetup builds the store in root slot 0. Config errors are programming
// errors in the constants above, so they panic like the other adapters'
// constructors.
func kvSetup(pool *pmem.Pool, maxThreads int) {
	_, err := kvstore.New(pool, kvstore.Config{
		Shards: kvShards, Buckets: kvBuckets, SlotsPerShard: kvSlotsPerShard,
		MaxThreads:  maxThreads,
		ChunkBlocks: kvChunkBlocks, MaxChunks: kvMaxChunks,
	})
	if err != nil {
		panic(err)
	}
}

// kvFactory builds the thread factory over a recovered store.
func kvFactory(pool *pmem.Pool, s *kvstore.Store) chaos.ThreadFactory {
	return func(tid int) (chaos.Thread, error) {
		return kvThread{h: s.Handle(pool.NewThread(tid))}, nil
	}
}

// kvThread adapts a store handle to the harness Thread interface with set
// semantics over key membership.
type kvThread struct{ h *kvstore.Handle }

func (t kvThread) Invoke() { t.h.Invoke() }

func (t kvThread) Run(op chaos.Op) uint64 {
	switch op.Kind {
	case chaos.KindInsert:
		absent, err := t.h.Put(op.Key, kvValueFor(op.Key), kvstore.NoExpiry)
		if err != nil {
			return kvOpFailed
		}
		return b2u(absent)
	case chaos.KindDelete:
		present, err := t.h.Delete(op.Key)
		if err != nil {
			return kvOpFailed
		}
		return b2u(present)
	default:
		_, ok := t.h.Get(op.Key)
		return b2u(ok)
	}
}

func (t kvThread) Recover(op chaos.Op) uint64 {
	switch op.Kind {
	case chaos.KindInsert:
		absent, err := t.h.RecoverPut(op.Key, kvValueFor(op.Key), kvstore.NoExpiry)
		if err != nil {
			return kvOpFailed
		}
		return b2u(absent)
	case chaos.KindDelete:
		present, err := t.h.RecoverDelete(op.Key)
		if err != nil {
			return kvOpFailed
		}
		return b2u(present)
	default:
		_, ok := t.h.RecoverGet(op.Key)
		return b2u(ok)
	}
}

// kvValidate audits a finished run on a freshly recovered store: no
// operation may have been rejected, the store's cross-layer invariants
// and the allocator recovery contract must hold, every shard's history
// partition must obey the set alternation oracle against that shard's
// surviving keys (which also re-checks the shard routing of every
// surviving key), and the full history must be linearizable.
func kvValidate(pool *pmem.Pool, s *kvstore.Store, res *chaos.Result) error {
	for t, log := range res.Logs {
		for i, rec := range log {
			if rec.Result == kvOpFailed {
				return fmt.Errorf("thread %d op %d: store rejected the operation", t+1, i)
			}
		}
	}
	boot := pool.NewThread(0)
	if err := s.CheckInvariants(boot, true); err != nil {
		return err
	}
	if err := s.AuditPostRecovery(boot); err != nil {
		return err
	}
	keys := s.Keys(boot)
	for si := 0; si < s.NumShards(); si++ {
		shardLogs := make([][]chaos.OpRecord, len(res.Logs))
		for t, log := range res.Logs {
			for _, rec := range log {
				if s.ShardOf(rec.Op.Key) == si {
					shardLogs[t] = append(shardLogs[t], rec)
				}
			}
		}
		var shardKeys []int64
		for _, k := range keys {
			if s.ShardOf(k) == si {
				shardKeys = append(shardKeys, k)
			}
		}
		if err := chaos.CheckSetAlternation(shardLogs, chaos.SetClassifier, shardKeys); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	if err := chaos.CheckSetLinearizable(res.Logs); err != nil {
		return err
	}
	if len(res.Logs) == 1 {
		return chaos.CheckSetSequential(res.Logs[0])
	}
	return nil
}

func init() {
	RegisterAdapter(&Adapter{
		Name: "kvstore", SitePrefix: "kvstore", MinThreads: 1, DefaultSweep: true,
		Setup: kvSetup,
		Reattach: func(pool *pmem.Pool) (chaos.ThreadFactory, error) {
			s, err := kvstore.Recover(pool, 0)
			if err != nil {
				return nil, err
			}
			return kvFactory(pool, s), nil
		},
		GenOp: chaos.SetGenOp(kvKeyRange), KeyedGen: chaos.SetGenOp,
		Validate: func(pool *pmem.Pool, res *chaos.Result) error {
			s, err := kvstore.Recover(pool, 0)
			if err != nil {
				return err
			}
			return kvValidate(pool, s, res)
		},
	})
}
