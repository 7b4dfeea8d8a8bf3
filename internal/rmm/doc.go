// Package rmm is the recoverable memory manager: a dynamic block
// allocator over a pmem pool whose hot path runs at DRAM speed because
// every piece of allocator metadata except the reservation bitmaps is
// volatile and rebuilt after a crash.
//
// # Design split
//
// The durable truth is minimal: a persistent header (geometry plus a
// chunk directory and chunk count) and one reservation bitmap per chunk.
// A set bit means the block is reserved: held by the application, or
// buffered in a handle. Bits change only when a batch crosses between
// the shared free-stacks and a handle: a refill sets its batch's bits and
// makes them durable with one PSync before any block of the batch is
// handed out, and a flush clears its batch's bits (written back, not
// synced) before any block of it re-enters a stack. Alloc and Free of
// buffered blocks persist nothing. So a block the application holds is
// always durably reserved, and a crash can never hand the same block to
// two owners — the detectability argument the paper's tracking approach
// builds on. A crash leaks at most refillBlocks+flushBlocks-1 reserved
// blocks per live handle, plus the blocks of in-flight operations, and
// RecoverGC reclaims all of them. Everything performance-critical is
// volatile:
//
//   - per-chunk lock-free free-stacks (a Treiber list threaded through an
//     index array, with a version-tagged top to defeat ABA),
//   - per-handle allocation caches and batched free buffers, so both
//     sides of churn touch the shared top pointer and the durable bitmap
//     once per ~16 ops,
//   - per-chunk used bitmaps recording which blocks the application
//     holds, so Free detects a double or foreign free without a durable
//     read,
//   - the chunk table itself: Free, Owns and RecoverGC's marker map a
//     block address to its owning chunk by scanning the published chunks
//     (at most maxChunks; a kvstore shard allocator holds two or three).
//
// A crash discards all of it; Attach rebuilds the free-stacks from the
// bitmaps (counting every reserved block as held), and RecoverGC rebuilds
// them from the application's reachable set while reclaiming every
// crash-leaked block in the same pass. Handles do not survive either: a
// handle created before a crash or a RecoverGC must be discarded, because
// its buffers name blocks whose reservations recovery may have cleared.
// RecoverAt attaches only the header and leaves the free-stacks to
// RecoverGC, so a restart that collects builds them once. See
// docs/allocator.md for the full design and crash-timeline argument.
//
// # Growth
//
// NewGrowable starts with one chunk and grows chunk-by-chunk when every
// chunk is empty, up to a fixed budget. The grow path persists the
// chunk's directory entry, fences, then persists the new chunk count —
// the single commit point — so a crash mid-grow either hides the chunk
// entirely or exposes it fully free (TestCrashMidGrow pins both sides).
//
// # Recovery
//
// Attach/AttachParallel restore the allocator after Pool.Recover;
// RecoverGC/RecoverGCParallel run the offline mark phase. Each pair
// shares one body over a recovery.Loop: the plain name runs it inline on
// the caller's context, the Parallel name deals it across an
// internal/recovery engine's workers. The rebuild builds per-bitmap-word
// free sublists and splices them serially in word order, so the rebuilt
// stacks — and the durable state — are the same no matter the worker
// count.
//
// Stats/PublishTelemetry export the rmm-* gauge family (utilization,
// growth activity, leak reclamation) through internal/telemetry.
package rmm
