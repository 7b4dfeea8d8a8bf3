package rmm

import (
	"runtime"
	"testing"

	"repro/internal/pmem"
)

// TestAddressIndexSizedByChunks builds an 8-chunk allocator twice: once
// with its chunks back to back and once with 8 MiB of unrelated pool
// allocations between consecutive chunks, so the chunks spread over 64 MiB.
// Publishing the address table must allocate O(chunks) bytes either way
// (the spread geometry skips the bucket index and scans the bases), and
// both geometries must resolve every block and reject foreign and
// misaligned addresses, through Owns and through Free.
func TestAddressIndexSizedByChunks(t *testing.T) {
	const (
		blockWords = 4
		chunkCap   = 16
		chunks     = 8
		gapWords   = 1 << 20
	)
	for _, tc := range []struct {
		name  string
		gap   int
		dense bool
	}{
		{"back-to-back", 0, true},
		{"spread", gapWords, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: chunks*gapWords + 1<<16, MaxThreads: 4})
			a := NewGrowable(pool, blockWords, chunkCap, chunks, 0)
			other := pool.NewThread(2)
			h := a.Handle(pool.NewThread(1))
			var blocks, foreign []pmem.Addr
			for ci := 0; ci < chunks; ci++ {
				if ci > 0 && tc.gap > 0 {
					foreign = append(foreign, other.AllocWords(tc.gap))
				}
				for j := 0; j < chunkCap; j++ {
					b := h.Alloc()
					if b == pmem.Null {
						t.Fatalf("chunk %d block %d: Alloc failed", ci, j)
					}
					blocks = append(blocks, b)
				}
			}
			if n := a.Stats().Chunks; n != chunks {
				t.Fatalf("%d chunks, want %d", n, chunks)
			}
			if got := a.bases.Load().look != nil; got != tc.dense {
				t.Fatalf("bucket index built: %v, want %v", got, tc.dense)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a.publishBases(chunks)
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
				t.Fatalf("publishBases allocated %d bytes for %d chunks", d, chunks)
			}

			for g := 0; g < a.TotalBlocks(); g++ {
				b := a.BlockAddr(g)
				if got, err := a.blockIndex(b); err != nil || got != g {
					t.Fatalf("block %d at %#x resolves to %d, %v", g, uint64(b), got, err)
				}
				if a.Owns(b + pmem.WordSize) {
					t.Fatalf("misaligned %#x inside block %d accepted", uint64(b+pmem.WordSize), g)
				}
			}
			last := a.BlockAddr(a.TotalBlocks() - 1)
			foreign = append(foreign, a.header, last+pmem.Addr(blockWords*pmem.WordSize), pmem.Addr(pool.AllocatedWords()*pmem.WordSize))
			for _, f := range foreign {
				if a.Owns(f) {
					t.Fatalf("foreign address %#x accepted", uint64(f))
				}
				if err := h.Free(f); err == nil {
					t.Fatalf("Free of foreign address %#x succeeded", uint64(f))
				}
			}
			if err := h.Free(blocks[0] + pmem.WordSize); err == nil {
				t.Fatal("Free of a misaligned address succeeded")
			}
			for _, b := range blocks {
				if err := h.Free(b); err != nil {
					t.Fatal(err)
				}
			}
			h.Flush()
			if n := a.InUse(h.ctx); n != 0 {
				t.Fatalf("%d blocks in use after freeing all", n)
			}
		})
	}
}
