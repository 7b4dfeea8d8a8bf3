package kvstore

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/rhash"
	"repro/internal/rmm"
	"repro/internal/tracking"
)

// storeMagic identifies a kvstore header (word 0), versioned in the low
// byte so a future layout change attaches with a clear error.
const storeMagic = 0x6b767374_00000001

// Header word offsets (the header is one cache line).
const (
	hMagic = iota
	hShards
	hBuckets
	hSlotCap
	hThreads
	hSeed
	hDir
	hEngTable
	headerWords = pmem.LineWords
)

// Shard-directory entry word offsets; one cache line per shard.
const (
	deIndex = iota // rhash bucket-table address
	deSlots        // value slot-table address
	deAlloc        // the word the shard's rmm allocator publishes through
	dirEntryUsed
)

// Value-block word offsets. Blocks are 4 words for a power-of-two stride;
// word 3 is reserved.
const (
	bKey = iota
	bTTL
	bVal
	blockUsedWords
)

const blockWords = 4

// Slot-table sentinels. Tombstones are odd on purpose: block addresses
// are word-aligned, so a tombstone can never be mistaken for one. Deletes
// write tombstones, never empties, so probe chains stay intact; Put reuses
// the first tombstone it passes.
const (
	slotEmpty     = 0
	slotTombstone = 1
)

// NoExpiry is the TTL stamp of a key that never expires. A zero TTL marks
// a block whose stamp stage has not run yet; it is treated as non-expiring
// until Put's third stage (or its recovery) lands the real stamp.
const NoExpiry = ^uint64(0)

// ErrFull reports a shard whose value slot table has no free or tombstone
// slot left for a new key.
var ErrFull = errors.New("kvstore: shard value table full")

// sitePrefix is the label prefix of the kvstore's own persistence sites.
// The tracking engine's sites keep the "rhash" prefix (it is the same
// machinery), so sweeping "kvstore" exercises exactly the value-plane
// windows; the index windows belong to the rhash adapter.
const sitePrefix = "kvstore"

// Config sizes a store. Zero fields take the documented defaults.
type Config struct {
	// Shards is the number of independent shards (default 16).
	Shards int
	// Buckets is the rhash bucket count per shard, rounded up to a power
	// of two (default 8).
	Buckets int
	// SlotsPerShard is the value-slot capacity per shard, rounded up to a
	// power of two (default 64). Size it at several times the expected
	// live keys per shard: deletes leave tombstones, and a probe chain
	// only terminates at a never-used slot.
	SlotsPerShard int
	// MaxThreads bounds the thread ids that may operate on the store
	// (default 8). Recover's workers reuse ids below it, which is sound
	// because recovery is offline: no handle runs until Recover returns.
	MaxThreads int
	// RootSlot is the pmem root slot the store commits through.
	RootSlot int
	// Seed salts the shard and probe hashes (default 1).
	Seed uint64
	// ChunkBlocks and MaxChunks are each shard's value-allocator geometry
	// (defaults 64 blocks/chunk, 8 chunks).
	ChunkBlocks int
	MaxChunks   int
}

func (cfg *Config) setDefaults() {
	if cfg.Shards == 0 {
		cfg.Shards = 16
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 8
	}
	if cfg.SlotsPerShard == 0 {
		cfg.SlotsPerShard = 64
	}
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ChunkBlocks == 0 {
		cfg.ChunkBlocks = 64
	}
	if cfg.MaxChunks == 0 {
		cfg.MaxChunks = 8
	}
}

// splitmix64 is the repository's standard seed scrambler.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e9b5
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shard is the volatile view of one shard, padded to its own cache line
// so one shard's writers do not invalidate another's readers.
type shard struct {
	idx   *rhash.Map
	alloc *rmm.Allocator
	slots pmem.Addr
	// seq is the shard's sequence lock: odd while a writer is inside its
	// write section, bumped on entry and on exit. Writers serialize on it
	// (Store.lock); Get reads optimistically and retries when it moved.
	seq atomic.Uint64
	_   [pmem.LineBytes - 32]byte // the four words above fill 32 bytes
}

// tally is one thread id's operation counts. Only the handles of that
// thread id write it, so counting an operation writes no line another
// thread touches on its own path; the gauges sum the tallies.
type tally struct {
	puts, gets, deletes atomic.Uint64
	shardOps            []atomic.Uint64           // completed operations per shard
	_                   [pmem.LineBytes - 48]byte // 3 words + a slice header
}

// Store is the volatile handle to an attached or freshly built store.
type Store struct {
	pool   *pmem.Pool
	eng    *tracking.Engine
	header pmem.Addr
	dir    pmem.Addr

	nShards    int
	nBuckets   int
	slotCap    int
	maxThreads int
	seed       uint64

	shards []*shard

	siteVal  pmem.Site
	siteSlot pmem.Site
	siteTTL  pmem.Site

	tallies   []tally // indexed by thread id
	evictions atomic.Uint64

	lastRecovery RecoveryStats
}

func (s *Store) registerSites() {
	s.siteVal = s.pool.RegisterSite(sitePrefix + "/pwb-val")
	s.siteSlot = s.pool.RegisterSite(sitePrefix + "/pwb-slot")
	s.siteTTL = s.pool.RegisterSite(sitePrefix + "/pwb-ttl")
}

// New builds a store in pool and commits it through cfg.RootSlot. Every
// durable structure the directory reaches is persisted before the root
// slot is written, so the single persisted root store is the whole
// construction's commit point.
func New(pool *pmem.Pool, cfg Config) (*Store, error) {
	cfg.setDefaults()
	root, err := pool.RootSlotChecked(cfg.RootSlot)
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("kvstore: shard count %d < 1", cfg.Shards)
	}
	if cfg.MaxThreads < 1 {
		return nil, fmt.Errorf("kvstore: max threads %d < 1", cfg.MaxThreads)
	}
	if cfg.ChunkBlocks < 1 || cfg.MaxChunks < 1 {
		return nil, fmt.Errorf("kvstore: allocator geometry %d blocks x %d chunks invalid",
			cfg.ChunkBlocks, cfg.MaxChunks)
	}
	s := &Store{
		pool:       pool,
		nShards:    cfg.Shards,
		nBuckets:   ceilPow2(cfg.Buckets),
		slotCap:    ceilPow2(cfg.SlotsPerShard),
		maxThreads: cfg.MaxThreads,
		seed:       cfg.Seed,
		shards:     make([]*shard, cfg.Shards),
	}
	s.initTallies()
	s.registerSites()
	s.eng = tracking.New(pool, cfg.MaxThreads, "rhash")
	boot := pool.NewThread(0)
	slotLines := (s.slotCap + pmem.LineWords - 1) / pmem.LineWords
	s.dir = boot.AllocLines(s.nShards)
	for si := 0; si < s.nShards; si++ {
		m := rhash.NewEmbedded(s.eng, boot, s.nBuckets)
		slots := boot.AllocLines(slotLines) // fresh lines are durably zero
		entry := s.dirEntry(si)
		boot.Store(entry+deIndex*pmem.WordSize, uint64(m.TableAddr()))
		boot.Store(entry+deSlots*pmem.WordSize, uint64(slots))
		alloc := rmm.NewGrowableAt(pool, blockWords, cfg.ChunkBlocks, cfg.MaxChunks,
			entry+deAlloc*pmem.WordSize)
		boot.PWBRange(pmem.NoSite, entry, dirEntryUsed)
		s.shards[si] = &shard{idx: m, alloc: alloc, slots: slots}
	}
	boot.PFence()
	s.header = boot.AllocLines(1)
	boot.Store(s.header+hMagic*pmem.WordSize, storeMagic)
	boot.Store(s.header+hShards*pmem.WordSize, uint64(s.nShards))
	boot.Store(s.header+hBuckets*pmem.WordSize, uint64(s.nBuckets))
	boot.Store(s.header+hSlotCap*pmem.WordSize, uint64(s.slotCap))
	boot.Store(s.header+hThreads*pmem.WordSize, uint64(s.maxThreads))
	boot.Store(s.header+hSeed*pmem.WordSize, s.seed)
	boot.Store(s.header+hDir*pmem.WordSize, uint64(s.dir))
	boot.Store(s.header+hEngTable*pmem.WordSize, uint64(s.eng.TableAddr()))
	boot.PWBRange(pmem.NoSite, s.header, headerWords)
	boot.PFence()
	boot.Store(root, uint64(s.header))
	boot.PWB(pmem.NoSite, root)
	boot.PSync()
	return s, nil
}

// initTallies sizes the per-thread counters. Every thread's per-shard row
// spans whole cache lines of one shared allocation.
func (s *Store) initTallies() {
	s.tallies = make([]tally, s.maxThreads)
	stride := (s.nShards + pmem.LineWords - 1) / pmem.LineWords * pmem.LineWords
	rows := make([]atomic.Uint64, s.maxThreads*stride)
	for i := range s.tallies {
		s.tallies[i].shardOps = rows[i*stride : i*stride+s.nShards : i*stride+s.nShards]
	}
}

func (s *Store) dirEntry(si int) pmem.Addr {
	return s.dir + pmem.Addr(si*pmem.LineBytes)
}

func (s *Store) slotAddr(sh *shard, i int) pmem.Addr {
	return sh.slots + pmem.Addr(i*pmem.WordSize)
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return s.nShards }

// SlotsPerShard returns the per-shard value-slot capacity.
func (s *Store) SlotsPerShard() int { return s.slotCap }

// Engine returns the shared tracking engine (its thread ids bound which
// contexts may drive handles).
func (s *Store) Engine() *tracking.Engine { return s.eng }

// ShardOf returns the shard index key routes to.
func (s *Store) ShardOf(key int64) int { return s.shardOf(key) }

func (s *Store) shardOf(key int64) int {
	return int(splitmix64(uint64(key)^s.seed) % uint64(s.nShards))
}

func (s *Store) probeBase(key int64) int {
	return int(splitmix64(uint64(key)^s.seed^0xa5a5a5a5a5a5a5a5) & uint64(s.slotCap-1))
}

// lock spins until it moves the shard's sequence word from even to odd,
// entering the write section. The spin body loads pool memory so a
// pending simulated crash panics the spinner instead of leaving it
// spinning on a lock its crashed holder will never release.
func (s *Store) lock(ctx *pmem.ThreadCtx, sh *shard) {
	for {
		if v := sh.seq.Load(); v&1 == 0 && sh.seq.CompareAndSwap(v, v+1) {
			return
		}
		ctx.Load(s.header)
	}
}

// unlock leaves the write section, making the sequence word even again.
func (s *Store) unlock(sh *shard) { sh.seq.Add(1) }

// Handle is a per-thread accessor; create one per ThreadCtx and do not
// share it across goroutines. Its rhash and rmm sub-handles are built
// lazily per shard.
type Handle struct {
	s    *Store
	ctx  *pmem.ThreadCtx
	th   *tracking.Thread
	t    *tally
	idxH []*rhash.Handle
	amH  []*rmm.Handle
}

// Handle creates the per-thread handle for ctx.
func (s *Store) Handle(ctx *pmem.ThreadCtx) *Handle {
	th := s.eng.Thread(ctx) // rejects thread ids outside [0, MaxThreads)
	return &Handle{
		s:    s,
		ctx:  ctx,
		th:   th,
		t:    &s.tallies[ctx.TID()],
		idxH: make([]*rhash.Handle, s.nShards),
		amH:  make([]*rmm.Handle, s.nShards),
	}
}

// count records one completed operation of kind c on shard si.
func (h *Handle) count(c *atomic.Uint64, si int) {
	c.Add(1)
	h.t.shardOps[si].Add(1)
}

// Invoke performs the system-side failure-atomic invocation step of the
// thread's next recoverable operation (tracking CP := 0). Harnesses call
// it before Put/Get/Delete; see the chaos package.
func (h *Handle) Invoke() { h.th.Invoke() }

func (h *Handle) idx(si int) *rhash.Handle {
	if h.idxH[si] == nil {
		h.idxH[si] = h.s.shards[si].idx.HandleWith(h.th)
	}
	return h.idxH[si]
}

func (h *Handle) am(si int) *rmm.Handle {
	if h.amH[si] == nil {
		h.amH[si] = h.s.shards[si].alloc.Handle(h.ctx)
	}
	return h.amH[si]
}

// probe walks the shard's probe chain for key. It returns the slot index
// and block address of the live entry for key (pos = -1, block = Null if
// absent) and the first reusable slot seen (-1 if the chain has none).
func (h *Handle) probe(sh *shard, key int64) (pos int, block pmem.Addr, free int) {
	s := h.s
	base := s.probeBase(key)
	free = -1
	for i := 0; i < s.slotCap; i++ {
		j := (base + i) & (s.slotCap - 1)
		v := h.ctx.Load(s.slotAddr(sh, j))
		switch v {
		case slotEmpty:
			if free < 0 {
				free = j
			}
			return -1, pmem.Null, free
		case slotTombstone:
			if free < 0 {
				free = j
			}
		default:
			b := pmem.Addr(v)
			if int64(h.ctx.Load(b+bKey*pmem.WordSize)) == key {
				return j, b, free
			}
		}
	}
	return -1, pmem.Null, free
}

// lookup is Get's probe: it returns the block of key's live entry (Null
// if absent). It reads slots with plain loads, so a read writes no slot
// line. A view torn by an overlapping write section is discarded by Get's
// sequence check.
func (h *Handle) lookup(sh *shard, key int64) pmem.Addr {
	s := h.s
	base := s.probeBase(key)
	for i := 0; i < s.slotCap; i++ {
		j := (base + i) & (s.slotCap - 1)
		switch v := h.ctx.Load(s.slotAddr(sh, j)); v {
		case slotEmpty:
			return pmem.Null
		case slotTombstone:
		default:
			b := pmem.Addr(v)
			if int64(h.ctx.Load(b+bKey*pmem.WordSize)) == key {
				return b
			}
		}
	}
	return pmem.Null
}

// newBlock allocates and fully persists a value block (stage "value-write"
// of the put protocol): the allocator made the block's bitmap bit durable
// before returning its address, and the key/ttl/value words are persisted
// and fenced here, so the block may be published with a single slot store.
func (h *Handle) newBlock(si int, key int64, ttl, val uint64) (pmem.Addr, error) {
	b := h.am(si).Alloc()
	if b == pmem.Null {
		return pmem.Null, fmt.Errorf("kvstore: shard %d value allocator exhausted", si)
	}
	h.ctx.Store(b+bKey*pmem.WordSize, uint64(key))
	h.ctx.Store(b+bTTL*pmem.WordSize, ttl)
	h.ctx.Store(b+bVal*pmem.WordSize, val)
	h.ctx.PWBRange(h.s.siteVal, b, blockUsedWords)
	h.ctx.PFence()
	return b, nil
}

// publish commits block into slot j with one persisted store.
func (h *Handle) publish(sh *shard, j int, block pmem.Addr) {
	w := h.s.slotAddr(sh, j)
	h.ctx.Store(w, uint64(block))
	h.ctx.PWB(h.s.siteSlot, w)
	h.ctx.PSync()
}

// tombstone durably retires slot j.
func (h *Handle) tombstone(sh *shard, j int) {
	w := h.s.slotAddr(sh, j)
	h.ctx.Store(w, slotTombstone)
	h.ctx.PWB(h.s.siteSlot, w)
	h.ctx.PSync()
}

// stampTTL runs the put protocol's third stage: persist the expiry tick
// into an already-published block.
func (h *Handle) stampTTL(block pmem.Addr, expireAt uint64) {
	w := block + bTTL*pmem.WordSize
	h.ctx.Store(w, expireAt)
	h.ctx.PWB(h.s.siteTTL, w)
	h.ctx.PSync()
}

// Put maps key to val until the logical tick expireAt (NoExpiry for
// none). It reports whether the key was absent. A fresh key runs the
// three-stage protocol (value-write, index-insert, TTL-stamp; see the
// package comment) and reports the result of the detectable index insert;
// an overwrite builds a fully-persisted replacement block, commits it with
// a single-word slot swap, frees the old block after, and reports false
// without touching the index.
func (h *Handle) Put(key int64, val uint64, expireAt uint64) (bool, error) {
	s := h.s
	si := s.shardOf(key)
	sh := s.shards[si]
	s.lock(h.ctx, sh)
	defer s.unlock(sh)
	return h.put(si, sh, key, val, expireAt)
}

// put is Put's body; the caller holds shard si's lock.
func (h *Handle) put(si int, sh *shard, key int64, val uint64, expireAt uint64) (bool, error) {
	pos, block, free := h.probe(sh, key)
	if block != pmem.Null {
		nb, err := h.newBlock(si, key, expireAt, val)
		if err != nil {
			return false, err
		}
		h.publish(sh, pos, nb) // commit point of the overwrite
		if err := h.am(si).Free(block); err != nil {
			return false, err
		}
		h.count(&h.t.puts, si)
		// A live slot under the write section means key is an index
		// member, so an index Insert would only traverse and fail.
		return false, nil
	}
	if free < 0 {
		return false, fmt.Errorf("%w (shard %d)", ErrFull, si)
	}
	nb, err := h.newBlock(si, key, 0, val)
	if err != nil {
		return false, err
	}
	h.publish(sh, free, nb)         // stage 1: value durable and reachable
	absent := h.idx(si).Insert(key) // stage 2: membership linearizes
	h.stampTTL(nb, expireAt)        // stage 3: expiry stamp
	h.count(&h.t.puts, si)
	return absent, nil
}

// Get returns the value mapped to key. Between write sections a live slot
// exists exactly when its key is an index member, so the slot probe alone
// answers membership. Get takes no lock: it reads the shard's sequence
// word, probes, reads the value, and keeps the answer only if the word was
// even and has not moved, so no write section overlapped the reads;
// otherwise it retries (see "Operations" in the package comment).
func (h *Handle) Get(key int64) (uint64, bool) {
	s := h.s
	si := s.shardOf(key)
	sh := s.shards[si]
	for {
		if v := sh.seq.Load(); v&1 == 0 {
			var val uint64
			block := h.lookup(sh, key)
			if block != pmem.Null {
				val = h.ctx.Load(block + bVal*pmem.WordSize)
			}
			if sh.seq.Load() == v {
				h.count(&h.t.gets, si)
				return val, block != pmem.Null
			}
		}
		// Like lock's spin: a pending crash panics here.
		h.ctx.Load(s.header)
	}
}

// Delete unmaps key, reporting whether it was present. The index delete
// is the linearization point; the slot tombstone and block free follow,
// and a crash between them is repaired by store recovery.
func (h *Handle) Delete(key int64) (bool, error) {
	s := h.s
	si := s.shardOf(key)
	sh := s.shards[si]
	s.lock(h.ctx, sh)
	defer s.unlock(sh)
	return h.delete(si, sh, key)
}

// delete is Delete's body; the caller holds shard si's lock.
func (h *Handle) delete(si int, sh *shard, key int64) (bool, error) {
	pos, block, _ := h.probe(sh, key)
	present := h.idx(si).Delete(key) // commit point
	if present {
		if block == pmem.Null {
			return false, fmt.Errorf("kvstore: shard %d: member key %d has no live slot", si, key)
		}
		h.tombstone(sh, pos)
		if err := h.am(si).Free(block); err != nil {
			return false, err
		}
	}
	h.count(&h.t.deletes, si)
	return present, nil
}

// EvictExpired removes every key whose TTL stamp is a positive tick at or
// below now, running the full delete protocol per key so freed blocks
// flow back through the allocator's free-stacks. It returns the number of
// keys evicted. Unstamped (0) and NoExpiry blocks are never evicted.
func (h *Handle) EvictExpired(now uint64) (int, error) {
	s := h.s
	evicted := 0
	for si := 0; si < s.nShards; si++ {
		sh := s.shards[si]
		s.lock(h.ctx, sh)
		for j := 0; j < s.slotCap; j++ {
			v := h.ctx.Load(s.slotAddr(sh, j))
			if v == slotEmpty || v == slotTombstone {
				continue
			}
			b := pmem.Addr(v)
			ttl := h.ctx.Load(b + bTTL*pmem.WordSize)
			if ttl == 0 || ttl == NoExpiry || ttl > now {
				continue
			}
			key := int64(h.ctx.Load(b + bKey*pmem.WordSize))
			if !h.idx(si).Delete(key) {
				s.unlock(sh)
				return evicted, fmt.Errorf("kvstore: shard %d: expired key %d not in index", si, key)
			}
			h.tombstone(sh, j)
			if err := h.am(si).Free(b); err != nil {
				s.unlock(sh)
				return evicted, err
			}
			evicted++
		}
		s.unlock(sh)
	}
	s.evictions.Add(uint64(evicted))
	return evicted, nil
}

// Flush returns the handle's buffered free blocks to the shared
// free-stacks; call it before idling a thread.
func (h *Handle) Flush() {
	for _, am := range h.amH {
		if am != nil {
			am.Flush()
		}
	}
}

// Keys returns every key in the store (per-shard index order,
// unsorted).
func (s *Store) Keys(ctx *pmem.ThreadCtx) []int64 {
	var keys []int64
	for _, sh := range s.shards {
		keys = sh.idx.AppendKeys(ctx, keys)
	}
	return keys
}

// ShardOps returns the completed-operation count of shard si.
func (s *Store) ShardOps(si int) uint64 {
	var n uint64
	for i := range s.tallies {
		n += s.tallies[i].shardOps[si].Load()
	}
	return n
}

// opCounts sums the per-thread tallies by operation kind.
func (s *Store) opCounts() (puts, gets, deletes uint64) {
	for i := range s.tallies {
		t := &s.tallies[i]
		puts += t.puts.Load()
		gets += t.gets.Load()
		deletes += t.deletes.Load()
	}
	return
}

// ShardLiveSlots counts shard si's live value slots.
func (s *Store) ShardLiveSlots(ctx *pmem.ThreadCtx, si int) int {
	sh := s.shards[si]
	live := 0
	for j := 0; j < s.slotCap; j++ {
		if v := ctx.Load(s.slotAddr(sh, j)); v != slotEmpty && v != slotTombstone {
			live++
		}
	}
	return live
}

// CheckInvariants validates the cross-layer shard invariants: each
// shard's index passes its own checks, every live slot holds an owned
// block whose key routes to that shard and is an index member, no key has
// two live slots, every index member has a live slot, and each value
// allocator's durable state is self-consistent. Quiescent has the rhash
// meaning (no in-flight operations).
func (s *Store) CheckInvariants(ctx *pmem.ThreadCtx, quiescent bool) error {
	var tab keyTable
	var keys []int64
	for si, sh := range s.shards {
		if err := sh.idx.CheckInvariants(ctx, quiescent); err != nil {
			return fmt.Errorf("kvstore: shard %d index: %w", si, err)
		}
		if err := sh.alloc.CheckInvariants(ctx); err != nil {
			return fmt.Errorf("kvstore: shard %d allocator: %w", si, err)
		}
		keys = sh.idx.AppendKeys(ctx, keys[:0])
		tab.reset(len(keys))
		members := 0
		for _, k := range keys {
			if st := tab.at(k); *st&keyMember == 0 {
				*st |= keyMember
				members++
			}
		}
		live := 0
		for j := 0; j < s.slotCap; j++ {
			v := ctx.Load(s.slotAddr(sh, j))
			if v == slotEmpty || v == slotTombstone {
				continue
			}
			live++
			b := pmem.Addr(v)
			if !sh.alloc.Owns(b) {
				return fmt.Errorf("kvstore: shard %d slot %d: block %#x not owned by shard allocator", si, j, v)
			}
			k := int64(ctx.Load(b + bKey*pmem.WordSize))
			if s.shardOf(k) != si {
				return fmt.Errorf("kvstore: shard %d slot %d: key %d routes to shard %d", si, j, k, s.shardOf(k))
			}
			st := tab.at(k)
			if *st&keySeen != 0 {
				return fmt.Errorf("kvstore: shard %d: key %d has two live slots", si, k)
			}
			*st |= keySeen
			if *st&keyMember == 0 {
				return fmt.Errorf("kvstore: shard %d: live slot key %d not in index", si, k)
			}
		}
		if live != members {
			return fmt.Errorf("kvstore: shard %d: %d live slots vs %d index members", si, live, members)
		}
	}
	return nil
}
