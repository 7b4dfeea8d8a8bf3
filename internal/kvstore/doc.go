// Package kvstore is a sharded, detectably-recoverable key/value store
// built from the repository's recoverable building blocks: each of N
// independent shards pairs an embedded rhash map (the membership index,
// lock-free and detectable through the tracking engine) with an
// rmm-backed value plane (an open-addressed slot table whose live slots
// point at allocator blocks holding key, TTL and value words).
//
// # Durable layout and commit protocol
//
// A store occupies one pmem root slot. The slot points at an 8-word
// header (magic, geometry, hash seed, shard-directory address, tracking
// table address); the header points at a shard directory with one cache
// line per shard carrying the shard's rhash bucket-table address, its
// value-slot-table address, and the word its private rmm allocator
// publishes its own header through (rmm.NewGrowableAt / rmm.RecoverAt).
// Construction persists everything the directory reaches and only then
// publishes the header address into the root slot with a single
// persisted store — the commit point. A crash mid-construction leaves
// the slot Null and Recover reports "holds no store" instead of parsing
// garbage.
//
// # Operations
//
// Keys hash to a shard with a seeded splitmix64. Each shard has a
// volatile sequence lock: a word that writers move from even v to v+1
// with a CAS on entry and back to even with an increment on exit, so it
// is odd exactly while a writer is inside the shard's write section. The
// spin body performs a pool load, so a simulated crash propagates into
// spinners instead of deadlocking them. A fresh Put runs the three-stage
// protocol the recovery machinery is built around: (1) value-write —
// allocate a block (its reservation is durable before the address is
// returned), persist key/value, publish the block address into a free
// slot with a persisted store; (2) index-insert — the rhash Insert, whose
// tracking checkpoint is the membership linearization point; (3)
// TTL-stamp — persist the expiry tick into the block. Delete linearizes
// at the rhash Delete, then tombstones the slot durably and frees the
// block into the shard handle's buffer (it stays reserved until a flush
// releases it). An overwrite builds a fully-persisted replacement block
// and commits it with a single-word slot swap; an overwrite Put reports false without an index call, because a
// live slot seen inside the write section means the key is a member.
//
// Get takes no lock and calls no index. Between write sections the slot
// table and the index agree — a live slot exists exactly when its key is
// an index member (CheckInvariants asserts it, and recovery restores it
// before clients resume) — so the slot probe alone answers membership.
// Get's probe reads slot words with plain loads and persists nothing.
// Get reads the sequence word, probes, reads the value word, and re-reads
// the sequence word; it returns only if the word was even and did not
// move, and otherwise loads pool memory (so a crash propagates, as in the
// writers' spin) and retries. This is safe because every write to a
// shard's slots and value blocks happens inside that shard's write
// section: Put, Delete, EvictExpired, RecoverPut and RecoverDelete all
// take the lock, store recovery repairs slots before any handle exists,
// and blocks are reused only through the shard's own allocator, which
// those same sections drive. A read that overlapped a
// write section may be torn, but a torn read only ever sees slot
// sentinels or block addresses (valid pool words), and the probe is
// bounded by the slot capacity; the re-read of the sequence word then
// discards it. A Get that returns therefore saw the state between two
// write sections, which is also the state its lock-taking predecessor
// saw. Get persists nothing and publishes nothing through tracking, so
// RecoverGet recovers it by re-execution. Operation counts live in
// per-thread-id tallies, so counting writes no shared line either.
//
// # Recovery
//
// Recover re-attaches the header and tracking engine, settles every
// interrupted index operation (tracking.Engine.HelpInFlight: each has
// then taken effect or never will), then repairs the shards offline on
// W = min(GOMAXPROCS, shards, MaxThreads) internal/recovery workers
// with thread ids 0..W-1. Each shard's repair re-attaches the embedded
// rhash and the shard allocator's header (rmm.RecoverAt), tombstones
// every live slot whose key is not in the index (a Put that crashed
// between value-publish and index-insert, or a Delete that crashed
// between index-delete and tombstone), rejects duplicate or foreign
// slots, and runs RecoverGC with the surviving blocks as roots, which
// builds the free-stacks once and returns crash-leaked blocks to them.
// Shards touch disjoint words and the deal is static, so durable state
// is byte-identical for every worker count; each worker keeps one flat
// key table, cleared per shard, so restart allocates per shard, not per
// key. A Handle must not outlive the recovery of its store: its shard
// allocators' buffers name blocks whose reservations RecoverGC cleared,
// so writing through it afterwards publishes unreserved blocks. Take
// fresh handles from the recovered Store. Per-operation exactly-once
// results then come from RecoverPut / RecoverGet / RecoverDelete.
// Other threads may have operated on the key
// by the time a recovery function runs, so RecoverPut and RecoverDelete
// touch the value plane only when their index operation never took
// effect, and then re-execute the whole operation.
//
// The tracking engine is shared by every shard (site prefix "rhash",
// the same machinery rhash itself uses): a thread runs one recoverable
// operation at a time, so one checkpoint/response pair per thread
// covers all shards, exactly as one engine covers all buckets inside
// rhash. The kvstore's own persistence sites are "kvstore/pwb-val",
// "kvstore/pwb-slot" and "kvstore/pwb-ttl" — the crash sweep enumerates
// these; the index's tracking windows are swept by the rhash adapter.
package kvstore
