// Package rmm is the recoverable memory manager: a dynamic block
// allocator over a pmem pool whose hot path runs at DRAM speed because
// every piece of allocator metadata except the allocation bitmaps is
// volatile and rebuilt after a crash.
//
// # Design split
//
// The durable truth is minimal: a persistent header (geometry plus a
// chunk directory and chunk count) and one allocation bitmap per chunk.
// A block's bitmap bit is made durable before Alloc returns it and is
// durably cleared by Free, so a crash can never hand the same block to
// two owners — the detectability argument the paper's tracking approach
// builds on. Everything performance-critical is volatile:
//
//   - per-chunk lock-free free-stacks (a Treiber list threaded through an
//     index array, with a version-tagged top to defeat ABA),
//   - per-handle allocation caches and batched free buffers, so both
//     sides of churn touch the shared top pointer once per ~16 ops,
//   - the chunk table itself: Free, Owns and RecoverGC's marker map a
//     block address to its owning chunk by scanning the published chunks
//     (at most maxChunks; a kvstore shard allocator holds two or three).
//
// A crash discards all of it; Attach rebuilds the free-stacks from the
// bitmaps, and RecoverGC rebuilds them from the application's reachable
// set while reclaiming every crash-leaked block in the same pass.
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
