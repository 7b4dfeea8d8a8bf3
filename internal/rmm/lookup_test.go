package rmm

import (
	"testing"

	"repro/internal/pmem"
)

// TestAddressResolution checks findBlock, the one address-resolution path
// (a scan of the published chunks), through Owns and Free on three chunk
// layouts: eight chunks back to back; eight chunks with 8 MiB of unrelated
// pool allocations between neighbours, so they spread over 64 MiB; and two
// allocators in one pool that grow alternately to four chunks each, the
// layout of a kvstore's per-shard allocators. Every block must resolve to
// its own index in its own allocator, and foreign, past-the-end and
// misaligned addresses, the other allocator's blocks among them, must be
// rejected.
func TestAddressResolution(t *testing.T) {
	const (
		blockWords = 4
		chunkCap   = 16
		chunks     = 8
		gapWords   = 1 << 20
	)
	for _, tc := range []struct {
		name string
		gap  int
	}{
		{"back-to-back", 0},
		{"spread", gapWords},
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
				blocks = append(blocks, allocN(t, h, chunkCap)...)
			}
			if n := a.Stats().Chunks; n != chunks {
				t.Fatalf("%d chunks, want %d", n, chunks)
			}
			checkResolution(t, a, h, blocks, foreign)
		})
	}

	t.Run("interleaved", func(t *testing.T) {
		const grown = 4
		pool := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 16, MaxThreads: 4})
		as := [2]*Allocator{
			NewGrowable(pool, blockWords, chunkCap, chunks, 0),
			NewGrowable(pool, blockWords, chunkCap, chunks, 1),
		}
		hs := [2]*Handle{as[0].Handle(pool.NewThread(1)), as[1].Handle(pool.NewThread(2))}
		var blocks [2][]pmem.Addr
		for round := 0; round < grown; round++ {
			for i := range as {
				blocks[i] = append(blocks[i], allocN(t, hs[i], chunkCap)...)
			}
		}
		for i, a := range as {
			if n := a.Stats().Chunks; n != grown {
				t.Fatalf("allocator %d: %d chunks, want %d", i, n, grown)
			}
		}
		for ci := 0; ci+1 < grown; ci++ {
			b0, b1, next0 := as[0].chunkAt(ci).blocks, as[1].chunkAt(ci).blocks, as[0].chunkAt(ci+1).blocks
			if !(b0 < b1 && b1 < next0) {
				t.Fatalf("chunk %d not interleaved: %#x, %#x, next %#x", ci, uint64(b0), uint64(b1), uint64(next0))
			}
		}
		checkResolution(t, as[0], hs[0], blocks[0], blocks[1])
		checkResolution(t, as[1], hs[1], blocks[1], blocks[0])
	})
}

// allocN allocates n blocks through h.
func allocN(t *testing.T, h *Handle, n int) []pmem.Addr {
	t.Helper()
	out := make([]pmem.Addr, n)
	for j := range out {
		if out[j] = h.Alloc(); out[j] == pmem.Null {
			t.Fatalf("block %d: Alloc failed", j)
		}
	}
	return out
}

// checkResolution requires every block of a to resolve to its index, and
// the misaligned, foreign, header and past-the-end addresses to be
// rejected by Owns and by Free; it then frees blocks (every block a
// allocated) and requires the allocator to end empty.
func checkResolution(t *testing.T, a *Allocator, h *Handle, blocks, foreign []pmem.Addr) {
	t.Helper()
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
	rejects := append([]pmem.Addr{a.header, last + pmem.Addr(a.stride), pmem.Addr(a.pool.AllocatedWords() * pmem.WordSize)}, foreign...)
	for _, f := range rejects {
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
}
