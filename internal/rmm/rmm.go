package rmm

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/recovery"
)

// Persistent header word offsets (relative to the allocator header). The
// chunk directory follows the fixed words: entry i occupies two words
// (bitmap address, blocks address) at hdrDir + 2*i.
const (
	hdrBlockW    = 0
	hdrChunkCap  = pmem.WordSize
	hdrMaxChunks = 2 * pmem.WordSize
	hdrNChunks   = 3 * pmem.WordSize
	hdrDir       = 4 * pmem.WordSize
	hdrFixed     = 4
)

// refillBlocks is how many free blocks a handle pulls off a chunk's shared
// free-stack in one CAS and reserves with one PSync; flushBlocks is how
// many locally buffered frees a handle accumulates before releasing them
// back with one CAS per chunk. A crash strands at most
// refillBlocks+flushBlocks-1 reserved blocks per live handle, which
// RecoverGC reclaims.
const (
	refillBlocks = 16
	flushBlocks  = 16
)

// sites names the allocator's registered pwb code lines.
type sites struct {
	reserve pmem.Site // bitmap lines of a refilled batch (bits set)
	release pmem.Site // bitmap lines of a flushed batch (bits cleared)
	rewrite pmem.Site // bitmap words RecoverGC rewrites to the reachable set
	dir     pmem.Site // chunk-directory entry of a grown chunk
	count   pmem.Site // chunk-count publish that commits a grow
}

// chunk is the volatile view of one contiguous block arena: its durable
// addresses plus the lock-free free-stack over its block indices. The
// stack is a Treiber list threaded through the next array — top packs a
// 32-bit ABA version with the 1-based index of the first free block, and
// next[i] holds the 1-based successor of block i (0 terminates). All
// stack state is volatile: a crash discards it and Attach/RecoverGC
// rebuild it from the durable bitmap, which is the only allocation truth.
// used is the volatile record of which blocks the application holds; it
// is what Free checks, so a double or foreign free is caught without a
// durable read.
type chunk struct {
	bitmap pmem.Addr // bitmapWords words, bit b = block b reserved
	blocks pmem.Addr // chunkCap * blockWords words
	top    atomic.Uint64
	free   atomic.Int64 // free-stack population (excludes handle caches)
	next   []atomic.Uint32
	used   []atomic.Uint64 // bitmapWords words, bit b = block b held
}

// newChunk returns the volatile view of a chunk with empty stack state.
func newChunk(bitmap, blocks pmem.Addr, chunkCap, bitmapWords int) *chunk {
	return &chunk{
		bitmap: bitmap, blocks: blocks,
		next: make([]atomic.Uint32, chunkCap),
		used: make([]atomic.Uint64, bitmapWords),
	}
}

// packTop builds a top word from a version and a 1-based head index.
func packTop(ver uint64, head1 uint32) uint64 { return ver<<32 | uint64(head1) }

// pushChain splices the pre-linked chain head1..tail1 (1-based chunk-local
// indices, n blocks) onto the free-stack with one CAS. The chain's cells
// are exclusively owned by the caller until the CAS publishes them.
func (c *chunk) pushChain(head1, tail1 uint32, n int64) {
	for {
		old := c.top.Load()
		c.next[tail1-1].Store(uint32(old))
		if c.top.CompareAndSwap(old, packTop(old>>32+1, head1)) {
			c.free.Add(n)
			return
		}
	}
}

// popChain detaches up to max blocks from the free-stack with one CAS and
// writes their chunk-local indices into dst. The walk over next cells may
// observe stale links if the stack changes underneath it, but any push or
// pop bumps top's version, so the CAS only succeeds when the walked chain
// was stable. Returns the number of blocks taken (0 = stack empty) and
// the number of CAS attempts + links walked, for the O(1) diagnostics.
func (c *chunk) popChain(dst []int, max int) (n int, steps uint64) {
	for {
		old := c.top.Load()
		steps++
		head1 := uint32(old)
		if head1 == 0 {
			return 0, steps
		}
		cur := head1
		n = 1
		dst[0] = int(cur - 1)
		for n < max {
			nxt := c.next[cur-1].Load()
			steps++
			if nxt == 0 {
				break
			}
			cur = nxt
			dst[n] = int(cur - 1)
			n++
		}
		newHead := c.next[cur-1].Load()
		if c.top.CompareAndSwap(old, packTop(old>>32+1, newHead)) {
			c.free.Add(-int64(n))
			return n, steps
		}
	}
}

// Allocator manages fixed-size blocks carved out of a pool, in up to
// maxChunks chunks of chunkCap blocks each. The durable state is the
// header (geometry + chunk directory + chunk count) and one reservation
// bitmap per chunk; everything else — the per-chunk free-stacks, the used
// bitmaps and the handle caches — is volatile and rebuilt from the
// bitmaps on Attach or from the reachable set in RecoverGC.
type Allocator struct {
	pool        *pmem.Pool
	header      pmem.Addr
	blockWords  int
	chunkCap    int
	maxChunks   int
	bitmapWords int // per chunk
	// stride is the block size in bytes; capShift/strideShift are the
	// log2 of chunkCap/stride when those are powers of two (-1 otherwise),
	// so the per-operation index math strength-reduces to shifts and masks
	// in the common geometries instead of hardware divisions.
	stride      int
	capShift    int
	strideShift int
	chunks      []atomic.Pointer[chunk]
	nChunks     atomic.Int32
	growMu      sync.Mutex
	rotor       atomic.Int64 // distributes handles across chunks
	s           sites

	// Statistics counters; see Stats.
	allocs, freesN, grows         atomic.Uint64
	refills, flushes, stackSteps  atomic.Uint64
	leaksReclaimed, marksRestored atomic.Uint64
}

// New creates a fixed-size allocator of nBlocks blocks of blockWords words
// each and records its header in rootSlot. It is NewGrowable with a single
// chunk — the arena can never grow.
func New(pool *pmem.Pool, blockWords, nBlocks, rootSlot int) *Allocator {
	return NewGrowable(pool, blockWords, nBlocks, 1, rootSlot)
}

// NewGrowable creates a growable allocator: one chunk of chunkBlocks
// blocks of blockWords words each is carved out immediately, and Alloc
// grows the arena chunk by chunk, up to maxChunks, when every chunk is
// exhausted. The header (geometry, chunk directory, chunk count) is
// persisted and recorded in rootSlot so Attach can rebuild the allocator
// after a crash. The slot is validated before anything is built.
func NewGrowable(pool *pmem.Pool, blockWords, chunkBlocks, maxChunks, rootSlot int) *Allocator {
	root, err := pool.RootSlotChecked(rootSlot)
	if err != nil {
		panic("rmm: " + err.Error())
	}
	return NewGrowableAt(pool, blockWords, chunkBlocks, maxChunks, root)
}

// NewGrowableAt is NewGrowable with the header address recorded in an
// arbitrary durable word instead of a root slot. Services that run more
// allocators than the pool has root slots (one per kvstore shard) point
// their directory entries here; at must already be allocated and is
// persisted with the bootstrap's NoSite discipline.
func NewGrowableAt(pool *pmem.Pool, blockWords, chunkBlocks, maxChunks int, at pmem.Addr) *Allocator {
	if blockWords <= 0 || chunkBlocks <= 0 || maxChunks <= 0 {
		panic("rmm: invalid geometry")
	}
	if !pool.ValidWords(at, 1) {
		panic("rmm: header slot outside pool")
	}
	boot := pool.NewThread(0)
	a := &Allocator{
		pool: pool, blockWords: blockWords, chunkCap: chunkBlocks,
		maxChunks: maxChunks, bitmapWords: (chunkBlocks + 63) / 64,
		chunks: make([]atomic.Pointer[chunk], maxChunks),
		s:      registerSites(pool),
	}
	a.setGeometry()
	header := boot.AllocWords(hdrFixed + 2*maxChunks)
	a.header = header
	boot.Store(header+hdrBlockW, uint64(blockWords))
	boot.Store(header+hdrChunkCap, uint64(chunkBlocks))
	boot.Store(header+hdrMaxChunks, uint64(maxChunks))
	boot.Store(header+hdrNChunks, 0)
	boot.PWBRange(pmem.NoSite, header, hdrFixed)
	boot.PFence()
	boot.Store(at, uint64(header))
	boot.PWB(pmem.NoSite, at)
	boot.PSync()
	if !a.grow(boot, true) {
		panic("rmm: pool too small for the first chunk")
	}
	return a
}

// registerSites registers (idempotently) the allocator's pwb code lines.
func registerSites(pool *pmem.Pool) sites {
	return sites{
		reserve: pool.RegisterSite("rmm/pwb-reserve"),
		release: pool.RegisterSite("rmm/pwb-release"),
		rewrite: pool.RegisterSite("rmm/pwb-gc-rewrite"),
		dir:     pool.RegisterSite("rmm/pwb-chunk-dir"),
		count:   pool.RegisterSite("rmm/pwb-chunk-count"),
	}
}

// Attach reconstructs an Allocator from the header in rootSlot after pool
// recovery, rebuilding each chunk's volatile free-stack from its durable
// reservation bitmap and counting every reserved block as held. Blocks
// the crash stranded (bit set, unreachable: handle buffers and in-flight
// operations) stay reserved until RecoverGC reclaims them.
func Attach(pool *pmem.Pool, rootSlot int) (*Allocator, error) {
	boot := pool.NewThread(0)
	return attach(pool, rootSlot, boot, recovery.Inline(boot))
}

// attach is Attach and AttachParallel: the header and chunk directory
// are read on boot, then loop runs the free-stack rebuild.
func attach(pool *pmem.Pool, rootSlot int, boot *pmem.ThreadCtx, loop recovery.Loop) (*Allocator, error) {
	root, err := pool.RootSlotChecked(rootSlot)
	if err != nil {
		return nil, fmt.Errorf("rmm: %w", err)
	}
	a, err := attachHeader(pool, boot, root)
	if err != nil {
		return nil, err
	}
	if err := a.rebuild(loop, nil); err != nil {
		return nil, err
	}
	return a, nil
}

// attachHeader rebuilds the allocator struct and chunk directory (but not
// the free-stacks) from the persistent header recorded at the durable
// word at. Header address and fields are validated before use, so a stale
// or garbage word yields a descriptive error rather than a panic.
func attachHeader(pool *pmem.Pool, boot *pmem.ThreadCtx, at pmem.Addr) (*Allocator, error) {
	if !pool.ValidWords(at, 1) {
		return nil, fmt.Errorf("rmm: header slot %#x outside pool", uint64(at))
	}
	header := pmem.Addr(boot.Load(at))
	if header == pmem.Null {
		return nil, fmt.Errorf("rmm: slot %#x holds no allocator", uint64(at))
	}
	if !pool.ValidWords(header, hdrFixed) {
		return nil, fmt.Errorf("rmm: slot %#x holds %#x, not a header address",
			uint64(at), uint64(header))
	}
	a := &Allocator{
		pool:       pool,
		header:     header,
		blockWords: int(boot.Load(header + hdrBlockW)),
		chunkCap:   int(boot.Load(header + hdrChunkCap)),
		maxChunks:  int(boot.Load(header + hdrMaxChunks)),
		s:          registerSites(pool),
	}
	n := int(boot.Load(header + hdrNChunks))
	if a.blockWords <= 0 || a.chunkCap <= 0 || a.maxChunks <= 0 || n <= 0 || n > a.maxChunks ||
		!pool.ValidWords(header, hdrFixed+2*a.maxChunks) {
		return nil, fmt.Errorf("rmm: corrupt header at %#x", uint64(header))
	}
	a.bitmapWords = (a.chunkCap + 63) / 64
	a.setGeometry()
	a.chunks = make([]atomic.Pointer[chunk], a.maxChunks)
	for ci := 0; ci < n; ci++ {
		entry := header + hdrDir + pmem.Addr(2*ci*pmem.WordSize)
		bm := pmem.Addr(boot.Load(entry))
		bl := pmem.Addr(boot.Load(entry + pmem.WordSize))
		if !pool.ValidWords(bm, a.bitmapWords) || !pool.ValidWords(bl, a.chunkCap*a.blockWords) {
			return nil, fmt.Errorf("rmm: corrupt chunk directory entry %d", ci)
		}
		a.chunks[ci].Store(newChunk(bm, bl, a.chunkCap, a.bitmapWords))
	}
	a.nChunks.Store(int32(n))
	return a, nil
}

// chunkAt returns chunk ci; ci must be below the published count.
func (a *Allocator) chunkAt(ci int) *chunk { return a.chunks[ci].Load() }

// setGeometry derives the strength-reduction fields from the geometry.
func (a *Allocator) setGeometry() {
	a.stride = a.blockWords * pmem.WordSize
	a.capShift, a.strideShift = shiftFor(a.chunkCap), shiftFor(a.stride)
}

// shiftFor returns log2(n) when n is a power of two, else -1.
func shiftFor(n int) int {
	if n > 0 && n&(n-1) == 0 {
		return bits.TrailingZeros(uint(n))
	}
	return -1
}

// locate resolves global block index g to its chunk and chunk-local index.
func (a *Allocator) locate(g int) (*chunk, int) {
	if a.capShift >= 0 {
		return a.chunks[g>>uint(a.capShift)].Load(), g & (a.chunkCap - 1)
	}
	return a.chunks[g/a.chunkCap].Load(), g % a.chunkCap
}

// findBlock locates the chunk owning a block address and the block's
// chunk index and chunk-local index. It reports false for addresses
// outside every chunk's arena or misaligned within one. It scans the
// published chunks, at most maxChunks of them. The scan loses no block:
// grow stores chunks[n] before nChunks becomes n+1, and refill hands out
// no block of chunk n until then, so every block an Alloc returned lies in
// a chunk below the count this load observes.
func (a *Allocator) findBlock(addr pmem.Addr) (*chunk, int, int, bool) {
	span := pmem.Addr(a.chunkCap * a.stride)
	n := int(a.nChunks.Load())
	for ci := 0; ci < n; ci++ {
		ch := a.chunks[ci].Load()
		if addr < ch.blocks || addr-ch.blocks >= span {
			continue
		}
		off := int(addr - ch.blocks)
		var idx int
		if a.strideShift >= 0 {
			if off&(a.stride-1) != 0 {
				return nil, 0, 0, false
			}
			idx = off >> uint(a.strideShift)
		} else {
			if off%a.stride != 0 {
				return nil, 0, 0, false
			}
			idx = off / a.stride
		}
		return ch, ci, idx, true
	}
	return nil, 0, 0, false
}

// grow carves a new chunk out of the pool arena and publishes it. The
// persist order makes a crash anywhere inside it harmless: the directory
// entry is flushed and fenced before the chunk count that makes it
// visible, so a torn grow leaves the durable count — and therefore every
// recovery — exactly as before the call. The arena words of an
// unpublished chunk are lost (the pool's bump pointer never rewinds), a
// bounded leak of at most one chunk per crash, mirroring the block-leak
// model. boot marks the constructor's first chunk, whose persists are
// bootstrap writes outside the sweep's site universe. Callers hold growMu
// (the constructor is single-threaded). Returns false when the chunk
// budget or the pool arena is exhausted.
func (a *Allocator) grow(ctx *pmem.ThreadCtx, boot bool) bool {
	n := int(a.nChunks.Load())
	if n >= a.maxChunks {
		return false
	}
	bmLines := (a.bitmapWords + pmem.LineWords - 1) / pmem.LineWords
	blkLines := (a.chunkCap*a.blockWords + pmem.LineWords - 1) / pmem.LineWords
	bm, ok := ctx.TryAllocLines(bmLines)
	if !ok {
		return false
	}
	bl, ok := ctx.TryAllocLines(blkLines)
	if !ok {
		return false // the bitmap words leak; the arena is exhausted anyway
	}
	siteDir, siteCount := a.s.dir, a.s.count
	if boot {
		siteDir, siteCount = pmem.NoSite, pmem.NoSite
	}
	// A fresh chunk's bitmap is durably zero already (arena words start
	// zero and were never written), so only the directory needs persisting.
	entry := a.header + hdrDir + pmem.Addr(2*n*pmem.WordSize)
	ctx.Store(entry, uint64(bm))
	ctx.Store(entry+pmem.WordSize, uint64(bl))
	ctx.PWBRange(siteDir, entry, 2)
	ctx.PFence()

	c := newChunk(bm, bl, a.chunkCap, a.bitmapWords)
	for i := 0; i < a.chunkCap-1; i++ {
		c.next[i].Store(uint32(i + 2))
	}
	c.top.Store(packTop(0, 1))
	c.free.Store(int64(a.chunkCap))
	// Stored before nChunks counts it: findBlock and refill read chunks
	// only below the count.
	a.chunks[n].Store(c)

	ctx.Store(a.header+hdrNChunks, uint64(n+1))
	ctx.PWB(siteCount, a.header+hdrNChunks)
	ctx.PSync()
	a.nChunks.Store(int32(n + 1))
	a.grows.Add(1)
	return true
}

// BlockAddr returns the address of block i (global index, chunk-major).
func (a *Allocator) BlockAddr(i int) pmem.Addr {
	c, idx := a.locate(i)
	return c.blocks + pmem.Addr(idx*a.stride)
}

// blockIndex is the inverse of BlockAddr: it maps a block address to its
// global index by locating the owning chunk.
func (a *Allocator) blockIndex(addr pmem.Addr) (int, error) {
	if _, ci, idx, ok := a.findBlock(addr); ok {
		return ci*a.chunkCap + idx, nil
	}
	return 0, fmt.Errorf("rmm: %#x is not a block address", uint64(addr))
}

// Owns reports whether addr is a block address of this allocator.
func (a *Allocator) Owns(addr pmem.Addr) bool {
	_, _, _, ok := a.findBlock(addr)
	return ok
}

// bitWord locates the bitmap word and mask of global block index i.
func (a *Allocator) bitWord(i int) (addr pmem.Addr, mask uint64) {
	c, idx := a.locate(i)
	return c.bitmap + pmem.Addr(idx>>6*pmem.WordSize), 1 << uint(idx&63)
}

// Handle is the per-thread face of the allocator. It buffers both sides
// of churn: Alloc refills a private cache of free blocks with one shared
// CAS per refillBlocks pops, and Free batches freed blocks locally,
// splicing them back with one shared CAS per chunk per flushBlocks frees.
// The durable bitmap changes only at those two batch boundaries: a refill
// reserves its whole batch with one PSync before handing any block out,
// and a flush releases its batch before any block re-enters a stack.
// Every block a handle buffers stays durably reserved, so a crash leaks
// the buffers (at most refillBlocks+flushBlocks-1 blocks) until RecoverGC
// and can never hand a block to two owners. A handle is single-goroutine,
// like its ThreadCtx, and must be discarded (not reused) across a crash
// or a RecoverGC.
type Handle struct {
	a   *Allocator
	ctx *pmem.ThreadCtx
	// cache holds refilled reserved blocks (global indices), consumed from
	// cachePos; frees holds freed blocks, still reserved, awaiting their
	// flush, and doubles as the first allocation source so a freed block
	// is reused while its lines are hot.
	cache    []int
	cachePos int
	frees    []int
	pref     int
	// words and chains are persistBits' and release's scratch tables,
	// kept to spare the batch paths an allocation.
	words  []bitMask
	chains []chain
	// nAllocs/nFrees batch the operation counters: the shared stats
	// atomics are touched once per statsBatch operations, so the hot path
	// pays a plain increment. Stats may therefore lag the truth by up to
	// statsBatch-1 operations per live handle.
	nAllocs, nFrees uint32
}

// bitMask is one bitmap word of a batch and the bits the batch changes.
type bitMask struct {
	addr pmem.Addr
	mask uint64
}

// chain is one chunk's part of a released batch, pre-linked through the
// chunk's next cells: 1-based head and tail indices and the block count.
type chain struct {
	ci           int
	head1, tail1 uint32
	n            int64
}

// statsBatch is the handle-local operation-counter flush period.
const statsBatch = 32

// Handle creates the per-thread handle for ctx.
func (a *Allocator) Handle(ctx *pmem.ThreadCtx) *Handle {
	return &Handle{
		a: a, ctx: ctx,
		cache: make([]int, 0, refillBlocks),
		frees: make([]int, 0, flushBlocks+refillBlocks),
		pref:  int(a.rotor.Add(1) - 1),
	}
}

// takeLocal pops a block from the handle's private buffers: most recently
// freed first, then the refill cache.
func (h *Handle) takeLocal() (int, bool) {
	if n := len(h.frees); n > 0 {
		g := h.frees[n-1]
		h.frees = h.frees[:n-1]
		return g, true
	}
	if h.cachePos < len(h.cache) {
		g := h.cache[h.cachePos]
		h.cachePos++
		return g, true
	}
	return 0, false
}

// refill repopulates the handle's cache from the shared free-stacks:
// chunks are scanned round-robin from the handle's preferred chunk, and
// the first non-empty stack donates up to refillBlocks blocks in one CAS.
// The batch is reserved — its bits set and made durable with one PSync —
// before any block of it is handed out. When every chunk is empty the
// allocator grows and the scan retries once.
func (h *Handle) refill() (int, bool) {
	a := h.a
	h.cache = h.cache[:cap(h.cache)]
	h.cachePos = len(h.cache) // stays "empty" if every pop below fails
	for attempt := 0; attempt < 2; attempt++ {
		n := int(a.nChunks.Load())
		for j := 0; j < n; j++ {
			ci := (h.pref + j) % n
			got, steps := a.chunkAt(ci).popChain(h.cache, refillBlocks)
			a.stackSteps.Add(steps)
			if got > 0 {
				for i := 0; i < got; i++ {
					h.cache[i] += ci * a.chunkCap
				}
				h.cache = h.cache[:got]
				h.persistBits(h.cache, true, a.s.reserve)
				h.ctx.PSync()
				h.cachePos = 1
				a.refills.Add(1)
				return h.cache[0], true
			}
		}
		if !a.expand(h.ctx) {
			break
		}
	}
	return 0, false
}

// persistBits sets (reserve) or clears (release) the durable bitmap bits
// of blocks gs: one CAS per bitmap word and one write-back at site s per
// bitmap line, in address order, each line written back once its words
// have changed. It issues no PSync; the caller decides.
func (h *Handle) persistBits(gs []int, set bool, s pmem.Site) {
	c := h.ctx
	ws := h.words[:0]
	for _, g := range gs {
		w, mask := h.a.bitWord(g)
		i := 0
		for i < len(ws) && ws[i].addr < w {
			i++
		}
		if i < len(ws) && ws[i].addr == w {
			ws[i].mask |= mask
			continue
		}
		ws = append(ws, bitMask{})
		copy(ws[i+1:], ws[i:])
		ws[i] = bitMask{w, mask}
	}
	const lineBytes = pmem.LineWords * pmem.WordSize
	for i, wm := range ws {
		for {
			v := c.Load(wm.addr)
			nv := v &^ wm.mask
			if set {
				nv = v | wm.mask
			}
			if c.CAS(wm.addr, v, nv) {
				break
			}
		}
		if i+1 == len(ws) || ws[i+1].addr/lineBytes != wm.addr/lineBytes {
			c.PWB(s, wm.addr)
		}
	}
	h.words = ws[:0]
}

// expand makes more blocks allocatable when every free-stack is empty by
// growing a fresh chunk. The grow lock serializes expanders; a second
// expander re-checks the stacks under the lock so racing exhaustion cannot
// grow twice for one shortage.
func (a *Allocator) expand(ctx *pmem.ThreadCtx) bool {
	a.growMu.Lock()
	defer a.growMu.Unlock()
	n := int(a.nChunks.Load())
	for ci := 0; ci < n; ci++ {
		if a.chunkAt(ci).free.Load() > 0 {
			return true // a concurrent free or expander already resolved it
		}
	}
	return a.grow(ctx, false)
}

// Alloc claims a free block, zeroes it, and returns its address. The
// block's bitmap bit is durable before Alloc returns — the refill that
// brought the block into the handle reserved its whole batch with one
// PSync — so a crash can never hand the block out twice. The hot path
// persists nothing: pop a block from the handle's private buffers
// (amortized one shared CAS and one reservation per refillBlocks
// allocations) and mark it held in the volatile used bitmap. Alloc
// returns Null only when every chunk is empty and the arena can no longer
// grow; concurrently buffered frees of other handles may make a Null
// transient.
func (h *Handle) Alloc() pmem.Addr {
	a := h.a
	c := h.ctx
	g, ok := h.takeLocal()
	if !ok {
		if g, ok = h.refill(); !ok {
			return pmem.Null
		}
	}
	ch, idx := a.locate(g)
	u, mask := &ch.used[idx>>6], uint64(1)<<uint(idx&63)
	for {
		v := u.Load()
		if u.CompareAndSwap(v, v|mask) {
			break
		}
	}
	b := ch.blocks + pmem.Addr(idx*a.stride)
	for off := 0; off < a.blockWords; off++ {
		c.Store(b+pmem.Addr(off*pmem.WordSize), 0)
	}
	if h.nAllocs++; h.nAllocs >= statsBatch {
		a.allocs.Add(uint64(h.nAllocs))
		h.nAllocs = 0
	}
	return b
}

// Free releases a block into the handle's local free buffer, where it
// stays durably reserved and is the next block Alloc reuses; Free itself
// persists nothing. The caller must durably disown the block first. A
// full buffer is flushed to the shared free-stacks, one CAS per chunk,
// after its reservations are cleared. Freeing an address the allocator
// does not own, or a block the application does not hold (a double
// free), returns an error.
func (h *Handle) Free(addr pmem.Addr) error {
	a := h.a
	ch, ci, idx, ok := a.findBlock(addr)
	if !ok {
		return fmt.Errorf("rmm: %#x is not a block address", uint64(addr))
	}
	g := ci*a.chunkCap + idx
	if a.capShift >= 0 {
		g = ci<<uint(a.capShift) | idx
	}
	u, mask := &ch.used[idx>>6], uint64(1)<<uint(idx&63)
	for {
		v := u.Load()
		if v&mask == 0 {
			return fmt.Errorf("rmm: double free of block %d", g)
		}
		if u.CompareAndSwap(v, v&^mask) {
			break
		}
	}
	h.frees = append(h.frees, g)
	if h.nFrees++; h.nFrees >= statsBatch {
		a.freesN.Add(uint64(h.nFrees))
		h.nFrees = 0
	}
	if len(h.frees) >= flushBlocks {
		h.release(h.frees)
		h.frees = h.frees[:0]
	}
	return nil
}

// Flush returns every block the handle buffers — its pending frees and
// the unused rest of its refill cache — to the shared free-stacks,
// clearing their reservations, so a flushed handle strands nothing. Free
// flushes the free buffer automatically at the threshold; call Flush
// before idling a thread so its buffered blocks become allocatable to
// others, and before a restart that should reclaim nothing.
func (h *Handle) Flush() {
	h.frees = append(h.frees, h.cache[h.cachePos:]...)
	h.cache, h.cachePos = h.cache[:0], 0
	h.release(h.frees)
	h.frees = h.frees[:0]
}

// release clears the reservations of the reserved, unheld blocks gs and
// then splices them onto their chunks' shared free-stacks, one CAS per
// distinct chunk. The clears are written back, one write-back per bitmap
// line, but not synced: a lost clear only leaks its block until
// RecoverGC. A block goes onto a stack only after its bit is clear, so a
// concurrent refill never pops a block whose release is still pending.
func (h *Handle) release(gs []int) {
	if len(gs) == 0 {
		return
	}
	a := h.a
	h.persistBits(gs, false, a.s.release)
	chains := h.chains[:0]
	for _, g := range gs {
		ci, idx1 := g/a.chunkCap, uint32(g%a.chunkCap+1)
		found := -1
		for i := range chains {
			if chains[i].ci == ci {
				found = i
				break
			}
		}
		if found < 0 {
			chains = append(chains, chain{ci: ci, head1: idx1, tail1: idx1, n: 1})
			continue
		}
		a.chunkAt(ci).next[chains[found].tail1-1].Store(idx1)
		chains[found].tail1 = idx1
		chains[found].n++
	}
	for _, cn := range chains {
		a.chunkAt(cn.ci).pushChain(cn.head1, cn.tail1, cn.n)
	}
	h.chains = chains[:0]
	a.flushes.Add(1)
}

// InUse counts reserved blocks (diagnostic): the population of the
// durable bitmaps. It includes the blocks handles buffer until they
// Flush, and blocks stranded by crashes until RecoverGC reclaims them.
func (a *Allocator) InUse(ctx *pmem.ThreadCtx) int {
	n, _ := a.inUse(recovery.Inline(ctx)) // the count's body returns no error
	return n
}

// inUse is InUse and InUseParallel: loop counts the set bits of every
// bitmap word.
func (a *Allocator) inUse(loop recovery.Loop) (int, error) {
	var total atomic.Int64
	err := loop(a.totalBitmapWords(), func(ctx *pmem.ThreadCtx, wi int) error {
		v := ctx.Load(a.wordAddr(wi))
		if rem := a.chunkCap - wi%a.bitmapWords*64; rem < 64 {
			v &= 1<<uint(rem) - 1
		}
		total.Add(int64(bits.OnesCount64(v)))
		return nil
	}, nil)
	return int(total.Load()), err
}

// TotalBlocks reports the current capacity in blocks across all chunks.
func (a *Allocator) TotalBlocks() int { return int(a.nChunks.Load()) * a.chunkCap }

// splicer assembles one chunk's free-stack deterministically from
// per-word sublists. Each bitmap word contributes its free blocks as an
// ascending pre-linked sublist (word is idempotent and touches only that
// word's next cells, so independent words may be built by different
// recovery workers); commit then splices the sublists in word order and
// publishes the stack head and free count. The result is a
// pure function of the bitmap contents — identical no matter how many
// workers built the sublists.
type splicer struct {
	a    *Allocator
	c    *chunk
	subs []sublist // one per bitmap word
}

// sublist is one bitmap word's free blocks: 1-based head and tail
// indices (0 when the word has none) and their count.
type sublist struct {
	head, tail uint32
	n          int64
}

// newSplicer prepares a splicer for chunk ci.
func newSplicer(a *Allocator, ci int) *splicer {
	return &splicer{a: a, c: a.chunkAt(ci), subs: make([]sublist, a.bitmapWords)}
}

// word builds word wi's sublist from its reserved-bits value, and counts
// every reserved block of the word as held.
func (s *splicer) word(wi int, allocBits uint64) {
	s.c.used[wi].Store(allocBits)
	span := s.a.chunkCap - wi*64
	if span > 64 {
		span = 64
	}
	mask := ^uint64(0)
	if span < 64 {
		mask = 1<<uint(span) - 1
	}
	free := ^allocBits & mask
	var head, prev uint32
	var n int64
	for free != 0 {
		idx1 := uint32(wi*64+bits.TrailingZeros64(free)) + 1
		if head == 0 {
			head = idx1
		} else {
			s.c.next[prev-1].Store(idx1)
		}
		prev = idx1
		n++
		free &= free - 1
	}
	s.subs[wi] = sublist{head, prev, n}
}

// commit links the sublists in word order and publishes the stack.
func (s *splicer) commit() {
	var first, last uint32
	var total int64
	for _, sub := range s.subs {
		if sub.head == 0 {
			continue
		}
		if first == 0 {
			first = sub.head
		} else {
			s.c.next[last-1].Store(sub.head)
		}
		last = sub.tail
		total += sub.n
	}
	if last != 0 {
		s.c.next[last-1].Store(0)
	}
	s.c.top.Store(packTop(s.c.top.Load()>>32+1, first))
	s.c.free.Store(total)
}

// CheckInvariants audits the volatile/durable split on a quiescent
// allocator: each chunk's free-stack must be acyclic, hold exactly the
// population its free counter claims, and list only blocks whose durable
// bit is clear, and every block the application holds must be durably
// reserved. (Blocks buffered in handles are reserved but neither held
// nor on a stack.)
func (a *Allocator) CheckInvariants(ctx *pmem.ThreadCtx) error {
	nc := int(a.nChunks.Load())
	for ci := 0; ci < nc; ci++ {
		c := a.chunkAt(ci)
		var walked int64
		bitClear := 0
		for wi := 0; wi < a.bitmapWords; wi++ {
			v := ctx.Load(c.bitmap + pmem.Addr(wi*pmem.WordSize))
			span := a.chunkCap - wi*64
			if span > 64 {
				span = 64
			}
			bitClear += span - bits.OnesCount64(v&(^uint64(0)>>uint(64-span)))
			if held := c.used[wi].Load() &^ v; held != 0 {
				return fmt.Errorf("rmm: chunk %d holds block %d without a reservation",
					ci, ci*a.chunkCap+wi*64+bits.TrailingZeros64(held))
			}
		}
		for idx1 := uint32(c.top.Load()); idx1 != 0; idx1 = c.next[idx1-1].Load() {
			if walked++; walked > int64(a.chunkCap) {
				return fmt.Errorf("rmm: chunk %d free-stack cycles or overruns", ci)
			}
			g := ci*a.chunkCap + int(idx1-1)
			if w, mask := a.bitWord(g); ctx.Load(w)&mask != 0 {
				return fmt.Errorf("rmm: chunk %d lists reserved block %d as free", ci, g)
			}
		}
		if f := c.free.Load(); f != walked {
			return fmt.Errorf("rmm: chunk %d free counter %d != stack population %d", ci, f, walked)
		}
		if walked > int64(bitClear) {
			return fmt.Errorf("rmm: chunk %d stack population %d exceeds %d bit-clear blocks",
				ci, walked, bitClear)
		}
	}
	return nil
}
