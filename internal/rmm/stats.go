package rmm

import "repro/internal/telemetry"

// Stats is a point-in-time utilization and activity summary of an
// allocator. Counters are monotone since New/Attach; block population
// figures are instantaneous. FreeBlocks counts only blocks on the shared
// free-stacks — blocks buffered in handle caches are in flight and
// counted live — so TotalBlocks = FreeBlocks + LiveBlocks always holds.
type Stats struct {
	// BlockWords and ChunkCap describe the geometry: words per block and
	// blocks per chunk.
	BlockWords int
	ChunkCap   int
	// Chunks / MaxChunks are the published and maximum chunk counts.
	Chunks    int
	MaxChunks int
	// TotalBlocks, FreeBlocks and LiveBlocks partition the current
	// capacity (see the type comment for handle-buffered blocks).
	TotalBlocks int64
	FreeBlocks  int64
	LiveBlocks  int64
	// Allocs and Frees count completed operations.
	Allocs uint64
	Frees  uint64
	// Grows counts chunks carved since New, the first one included.
	Grows uint64
	// CacheRefills and FreeFlushes count handle↔shared-stack batch
	// transfers; StackSteps counts CAS attempts plus links walked on the
	// shared stacks (the amortized-O(1) diagnostic).
	CacheRefills uint64
	FreeFlushes  uint64
	StackSteps   uint64
	// LeaksReclaimed and MarksRestored count bitmap bits RecoverGC
	// cleared (crash-leaked blocks) and set (unmarked-but-reachable
	// blocks; zero in any correct mark).
	LeaksReclaimed uint64
	MarksRestored  uint64
}

// Stats reads the allocator's utilization and activity counters. Safe to
// call concurrently with operations; population figures are a consistent
// order-of-magnitude read, not an atomic cross-chunk snapshot.
func (a *Allocator) Stats() Stats {
	st := Stats{
		BlockWords:     a.blockWords,
		ChunkCap:       a.chunkCap,
		MaxChunks:      a.maxChunks,
		Allocs:         a.allocs.Load(),
		Frees:          a.freesN.Load(),
		Grows:          a.grows.Load(),
		CacheRefills:   a.refills.Load(),
		FreeFlushes:    a.flushes.Load(),
		StackSteps:     a.stackSteps.Load(),
		LeaksReclaimed: a.leaksReclaimed.Load(),
		MarksRestored:  a.marksRestored.Load(),
	}
	n := int(a.nChunks.Load())
	st.Chunks = n
	for ci := 0; ci < n; ci++ {
		st.FreeBlocks += a.chunkAt(ci).free.Load()
	}
	st.TotalBlocks = int64(n * a.chunkCap)
	st.LiveBlocks = st.TotalBlocks - st.FreeBlocks
	return st
}

// PublishTelemetry exports the allocator's current Stats as the rmm-*
// gauge family on reg. Call it at figure-run boundaries (or periodically
// from a monitor) — it is a read-snapshot plus map writes, not a hot-path
// hook.
func (a *Allocator) PublishTelemetry(reg *telemetry.Registry) {
	st := a.Stats()
	reg.SetGauge("rmm-chunks", uint64(st.Chunks))
	reg.SetGauge("rmm-blocks-total", uint64(st.TotalBlocks))
	reg.SetGauge("rmm-blocks-free", uint64(st.FreeBlocks))
	reg.SetGauge("rmm-blocks-live", uint64(st.LiveBlocks))
	reg.SetGauge("rmm-allocs", st.Allocs)
	reg.SetGauge("rmm-frees", st.Frees)
	reg.SetGauge("rmm-grows", st.Grows)
	reg.SetGauge("rmm-cache-refills", st.CacheRefills)
	reg.SetGauge("rmm-free-flushes", st.FreeFlushes)
	reg.SetGauge("rmm-stack-steps", st.StackSteps)
	reg.SetGauge("rmm-leaks-reclaimed", st.LeaksReclaimed)
	reg.SetGauge("rmm-marks-restored", st.MarksRestored)
}
