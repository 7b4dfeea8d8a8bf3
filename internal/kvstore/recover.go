package kvstore

import (
	"fmt"
	"math/bits"

	"repro/internal/pmem"
	"repro/internal/recovery"
	"repro/internal/rhash"
	"repro/internal/rmm"
	"repro/internal/telemetry"
	"repro/internal/tracking"
)

// RecoveryStats summarizes one whole-store recovery in deterministic
// units (persistence-instruction deltas, not wall clocks — the workload
// reports that embed these must be byte-identical across runs).
type RecoveryStats struct {
	Shards          int
	SlotsReconciled int    // live slots tombstoned (torn puts / deletes)
	LeaksReclaimed  uint64 // blocks RecoverGC returned to the free-stacks
	MarksRestored   uint64 // must be 0: bits are durable before publish
	PWBs            uint64 // write-backs issued by recovery
	PSyncs          uint64 // syncs issued by recovery
}

// LastRecovery returns the stats of the Recover/RecoverParallel call that
// produced this store (zero for a store built by New).
func (s *Store) LastRecovery() RecoveryStats { return s.lastRecovery }

// attachStore validates the root slot and header and rebuilds the
// volatile store skeleton (shards still nil) plus the shared tracking
// engine. tid is the thread id used for the serial header reads.
func attachStore(pool *pmem.Pool, rootSlot, tid int) (*Store, *pmem.ThreadCtx, error) {
	root, err := pool.RootSlotChecked(rootSlot)
	if err != nil {
		return nil, nil, fmt.Errorf("kvstore: %w", err)
	}
	boot := pool.NewThread(tid)
	header := pmem.Addr(boot.Load(root))
	if header == pmem.Null {
		return nil, nil, fmt.Errorf("kvstore: root slot %d holds no store", rootSlot)
	}
	if !pool.ValidWords(header, headerWords) {
		return nil, nil, fmt.Errorf("kvstore: root slot %d: %#x is not a header address", rootSlot, uint64(header))
	}
	if m := boot.Load(header + hMagic*pmem.WordSize); m != storeMagic {
		return nil, nil, fmt.Errorf("kvstore: root slot %d: bad magic %#x", rootSlot, m)
	}
	s := &Store{
		pool:       pool,
		header:     header,
		nShards:    int(boot.Load(header + hShards*pmem.WordSize)),
		nBuckets:   int(boot.Load(header + hBuckets*pmem.WordSize)),
		slotCap:    int(boot.Load(header + hSlotCap*pmem.WordSize)),
		maxThreads: int(boot.Load(header + hThreads*pmem.WordSize)),
		seed:       boot.Load(header + hSeed*pmem.WordSize),
		dir:        pmem.Addr(boot.Load(header + hDir*pmem.WordSize)),
	}
	if s.nShards < 1 || s.nBuckets < 1 || s.nBuckets&(s.nBuckets-1) != 0 ||
		s.slotCap < 1 || s.slotCap&(s.slotCap-1) != 0 || s.maxThreads < 1 ||
		!pool.ValidWords(s.dir, s.nShards*pmem.LineWords) {
		return nil, nil, fmt.Errorf("kvstore: root slot %d: corrupt header", rootSlot)
	}
	engTable := pmem.Addr(boot.Load(header + hEngTable*pmem.WordSize))
	if !pool.ValidWords(engTable, 1) {
		return nil, nil, fmt.Errorf("kvstore: root slot %d: corrupt header", rootSlot)
	}
	s.shards = make([]*shard, s.nShards)
	s.initTallies()
	s.registerSites()
	s.eng = tracking.Attach(pool, engTable, s.maxThreads, "rhash")
	// Settle every interrupted index operation before any shard is
	// reconciled against its index (see tracking.Engine.HelpInFlight).
	s.eng.HelpInFlight(boot)
	return s, boot, nil
}

// Key-table cell states. keyUsed marks an occupied cell; the other bits
// record what recovery or the audit learned about the cell's key.
const (
	keyUsed   uint8 = 1 << iota
	keyMember       // an index member
	keySeen         // a live slot already holds it
)

// keyTable is a flat open-addressed key → state table (linear probing,
// power-of-two capacity, at most half full). It is cleared, not
// reallocated, for each shard, so a whole-store pass allocates it once
// and its size tracks the largest shard rather than the key count.
type keyTable struct {
	keys  []int64
	state []uint8
	n     int
	shift uint // 64 - log2(len(keys))
}

// reset empties the table and sizes it for at least n keys; later inserts
// grow it, so n is a hint, not a bound.
func (t *keyTable) reset(n int) {
	c := 16
	for c < 2*n {
		c <<= 1
	}
	if len(t.keys) < c {
		t.alloc(c)
		return
	}
	clear(t.state)
	t.n = 0
}

func (t *keyTable) alloc(c int) {
	t.keys, t.state, t.n = make([]int64, c), make([]uint8, c), 0
	t.shift = uint(64 - bits.TrailingZeros(uint(c)))
}

// at returns the state cell of key k, inserting k (state keyUsed) if it is
// absent. The pointer is valid until the next call.
func (t *keyTable) at(k int64) *uint8 {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	mask := len(t.keys) - 1
	for i := int(uint64(k) * 0x9e3779b97f4a7c15 >> t.shift); ; i = (i + 1) & mask {
		if t.state[i] == 0 {
			t.keys[i], t.state[i] = k, keyUsed
			t.n++
			return &t.state[i]
		}
		if t.keys[i] == k {
			return &t.state[i]
		}
	}
}

func (t *keyTable) grow() {
	keys, state := t.keys, t.state
	t.alloc(2 * len(keys))
	for i, st := range state {
		if st != 0 {
			*t.at(keys[i]) = st
		}
	}
}

// recoverScratch is one recovery worker's volatile working memory, reused
// across the shards it repairs: the key table and the index-key buffer.
type recoverScratch struct {
	tab  keyTable
	keys []int64
}

// recoverShard re-attaches shard si and makes it consistent: the embedded
// index and the shard allocator are validated and rebuilt, every live
// slot whose key the index does not contain is durably tombstoned (a put
// that crashed before its index insert, or a delete that crashed after
// its index delete), foreign or duplicate slots are rejected as
// corruption, and RecoverGC rewrites the allocator's bitmaps to exactly
// the surviving blocks and builds its free-stacks. All durable words
// touched belong to shard si, and the per-shard instruction sequence does
// not depend on which worker runs it — which is why serial and parallel
// recovery produce byte-identical durable state.
func (s *Store) recoverShard(ctx *pmem.ThreadCtx, si int, sc *recoverScratch) (reconciled int, err error) {
	entry := s.dirEntry(si)
	table := pmem.Addr(ctx.Load(entry + deIndex*pmem.WordSize))
	slots := pmem.Addr(ctx.Load(entry + deSlots*pmem.WordSize))
	if !s.pool.ValidWords(slots, s.slotCap) {
		return 0, fmt.Errorf("kvstore: shard %d: slot table %#x outside pool", si, uint64(slots))
	}
	m, err := rhash.AttachEmbedded(s.eng, ctx, table, s.nBuckets)
	if err != nil {
		return 0, fmt.Errorf("kvstore: shard %d: %w", si, err)
	}
	sh := &shard{idx: m, slots: slots}
	// reconcileShard's errors already name the shard and slot; only
	// RecoverAt's own attach and rebuild errors need the shard prefix.
	var reconcileErr error
	alloc, err := rmm.RecoverAt(ctx, entry+deAlloc*pmem.WordSize,
		func(alloc *rmm.Allocator, visit func(pmem.Addr) error) error {
			reconciled, reconcileErr = s.reconcileShard(ctx, si, sh, alloc, visit, sc)
			return reconcileErr
		})
	if reconcileErr != nil {
		return 0, reconcileErr
	}
	if err != nil {
		return 0, fmt.Errorf("kvstore: shard %d: %w", si, err)
	}
	if st := alloc.Stats(); st.MarksRestored != 0 {
		return 0, fmt.Errorf("kvstore: shard %d: %d blocks were published before their bitmap bit", si, st.MarksRestored)
	}
	sh.alloc = alloc
	s.shards[si] = sh
	return reconciled, nil
}

// reconcileShard is recoverShard's slot pass and the mark of its
// RecoverGC: one key-table entry per index member and per live-slot key,
// live slots that are not consistent members tombstoned in slot order,
// and the consistent slots' blocks visited as the reachable set. Marks
// are volatile until RecoverGC's rebuild, which an error here prevents.
func (s *Store) reconcileShard(ctx *pmem.ThreadCtx, si int, sh *shard, alloc *rmm.Allocator,
	visit func(pmem.Addr) error, sc *recoverScratch) (reconciled int, err error) {
	sc.keys = sh.idx.AppendKeys(ctx, sc.keys[:0])
	sc.tab.reset(len(sc.keys))
	members := 0
	for _, k := range sc.keys {
		if st := sc.tab.at(k); *st&keyMember == 0 {
			*st |= keyMember
			members++
		}
	}
	consistent := 0
	dirty := false
	for j := 0; j < s.slotCap; j++ {
		w := s.slotAddr(sh, j)
		v := ctx.Load(w)
		if v == slotEmpty || v == slotTombstone {
			continue
		}
		b := pmem.Addr(v)
		if !alloc.Owns(b) {
			return 0, fmt.Errorf("kvstore: shard %d slot %d: block %#x not owned by shard allocator", si, j, v)
		}
		k := int64(ctx.Load(b + bKey*pmem.WordSize))
		st := sc.tab.at(k)
		if *st&keySeen != 0 {
			return 0, fmt.Errorf("kvstore: shard %d: key %d has two live slots", si, k)
		}
		*st |= keySeen
		if *st&keyMember == 0 || s.shardOf(k) != si {
			ctx.Store(w, slotTombstone)
			ctx.PWB(s.siteSlot, w)
			dirty = true
			reconciled++
			continue
		}
		if err := visit(b); err != nil {
			return 0, fmt.Errorf("kvstore: shard %d: %w", si, err)
		}
		consistent++
	}
	if dirty {
		ctx.PSync()
	}
	// The commit protocol publishes a key's slot durably before its index
	// insert linearizes, so an index member without a live slot means the
	// store's durable state was corrupted outside the protocol.
	if consistent != members {
		return 0, fmt.Errorf("kvstore: shard %d: %d index members vs %d consistent slots", si, members, consistent)
	}
	return reconciled, nil
}

func (s *Store) finishRecovery(base pmem.Stats, reconciled int) {
	st := s.pool.Snapshot().Sub(base)
	var leaks, restored uint64
	for _, sh := range s.shards {
		a := sh.alloc.Stats()
		leaks += a.LeaksReclaimed
		restored += a.MarksRestored
	}
	s.lastRecovery = RecoveryStats{
		Shards:          s.nShards,
		SlotsReconciled: reconciled,
		LeaksReclaimed:  leaks,
		MarksRestored:   restored,
		PWBs:            st.PWBs,
		PSyncs:          st.PSyncs,
	}
}

// Recover re-attaches the store committed through rootSlot after a crash
// and repairs every shard serially. Per-operation results are then
// available through the Recover* handle methods.
func Recover(pool *pmem.Pool, rootSlot int) (*Store, error) {
	base := pool.Snapshot()
	s, boot, err := attachStore(pool, rootSlot, 0)
	if err != nil {
		return nil, err
	}
	var sc recoverScratch
	reconciled := 0
	for si := 0; si < s.nShards; si++ {
		n, err := s.recoverShard(boot, si, &sc)
		if err != nil {
			return nil, err
		}
		reconciled += n
	}
	s.finishRecovery(base, reconciled)
	return s, nil
}

// RecoverParallel is Recover with the per-shard repair fanned out across
// the engine's workers (PhaseAttach). Shards touch disjoint durable
// words and run the same code serial or parallel, so the durable state
// and persistence-instruction totals match Recover exactly. The frozen
// end-to-end benchmark is its caller; TestRecoverSerialParallelIdentical
// pins it against Recover byte for byte over 100 seeded crash states.
func RecoverParallel(pool *pmem.Pool, rootSlot int, eng *recovery.Engine) (*Store, error) {
	base := pool.Snapshot()
	s, _, err := attachStore(pool, rootSlot, eng.BaseTID())
	if err != nil {
		return nil, err
	}
	perShard := make([]int, s.nShards)
	scratch := make([]recoverScratch, eng.Workers()) // worker wk runs on thread BaseTID+wk
	err = eng.For(pool, recovery.PhaseAttach, s.nShards,
		func(ctx *pmem.ThreadCtx, si int) error {
			n, err := s.recoverShard(ctx, si, &scratch[ctx.TID()-eng.BaseTID()])
			perShard[si] = n
			return err
		}, nil)
	if err != nil {
		return nil, err
	}
	reconciled := 0
	for _, n := range perShard {
		reconciled += n
	}
	s.finishRecovery(base, reconciled)
	return s, nil
}

// RecoverPut is Put's exactly-once recovery function: call it after a
// crash with the arguments of the interrupted Put. Store recovery has
// already settled the Put's index insert (tracking.Engine.HelpInFlight) and
// reconciled the slots against the index, so the outcome is one of two. The
// insert took effect — before the crash or during store recovery — after
// the value-write stage, whose slot the reconciliation therefore kept: the
// result replays through tracking and only the TTL stamp may be missing.
// Or it never will: the Put re-executes now (an overwrite commits again at
// its slot swap, with the same value). Other threads may have operated on
// the key since store recovery, so nothing else is redone.
func (h *Handle) RecoverPut(key int64, val uint64, expireAt uint64) (bool, error) {
	s := h.s
	si := s.shardOf(key)
	sh := s.shards[si]
	s.lock(h.ctx, sh)
	defer s.unlock(sh)
	absent, ok := h.idx(si).Settled()
	if !ok {
		return h.put(si, sh, key, val, expireAt)
	}
	// A block holding val with no stamp yet is this Put's stage-3 window.
	if _, block, _ := h.probe(sh, key); block != pmem.Null &&
		h.ctx.Load(block+bVal*pmem.WordSize) == val && h.ctx.Load(block+bTTL*pmem.WordSize) == 0 {
		h.stampTTL(block, expireAt)
	}
	return absent, nil
}

// RecoverGet is Get's recovery function. Get persists nothing and
// publishes nothing through tracking, so a read recovers by re-execution:
// the interrupted Get never returned, and its response may be taken at
// any point up to the re-executed one.
func (h *Handle) RecoverGet(key int64) (uint64, bool) { return h.Get(key) }

// RecoverDelete is Delete's exactly-once recovery function. Store recovery
// has already settled the Delete's index delete and reconciled the slots:
// if the delete took effect, the key's slot was tombstoned then (a live
// slot for the key now belongs to a later Put) and the result replays
// through tracking; otherwise the Delete re-executes now.
func (h *Handle) RecoverDelete(key int64) (bool, error) {
	s := h.s
	si := s.shardOf(key)
	sh := s.shards[si]
	s.lock(h.ctx, sh)
	defer s.unlock(sh)
	if present, ok := h.idx(si).Settled(); ok {
		return present, nil
	}
	return h.delete(si, sh, key)
}

// AuditPostRecovery verifies the allocator-level recovery contract on a
// freshly recovered, quiescent store: no bitmap bit had to be restored
// (blocks are durable before they are published), and each shard's
// allocated-block population equals its live slots exactly (RecoverGC
// rewrote the bitmaps to the reachable set, and no handle caches exist
// yet to hold claimed-but-unpublished blocks).
func (s *Store) AuditPostRecovery(ctx *pmem.ThreadCtx) error {
	for si, sh := range s.shards {
		st := sh.alloc.Stats()
		if st.MarksRestored != 0 {
			return fmt.Errorf("kvstore: shard %d: %d marks restored", si, st.MarksRestored)
		}
		if inUse, live := sh.alloc.InUse(ctx), s.ShardLiveSlots(ctx, si); inUse != live {
			return fmt.Errorf("kvstore: shard %d: %d blocks in use vs %d live slots", si, inUse, live)
		}
	}
	return nil
}

// PublishTelemetry exports the store's counters as the kvstore-* gauge
// family, including one completed-operations gauge per shard (the
// per-shard throughput surface) and the deterministic recovery-cost
// stats of the last Recover/RecoverParallel.
func (s *Store) PublishTelemetry(reg *telemetry.Registry) {
	puts, gets, deletes := s.opCounts()
	reg.SetGauge("kvstore-shards", uint64(s.nShards))
	reg.SetGauge("kvstore-puts", puts)
	reg.SetGauge("kvstore-gets", gets)
	reg.SetGauge("kvstore-deletes", deletes)
	reg.SetGauge("kvstore-evictions", s.evictions.Load())
	var live, total int64
	for si, sh := range s.shards {
		st := sh.alloc.Stats()
		live += st.LiveBlocks
		total += st.TotalBlocks
		reg.SetGauge(fmt.Sprintf("kvstore-shard-%03d-ops", si), s.ShardOps(si))
	}
	reg.SetGauge("kvstore-blocks-live", uint64(live))
	reg.SetGauge("kvstore-blocks-total", uint64(total))
	r := s.lastRecovery
	reg.SetGauge("kvstore-recovery-slots-reconciled", uint64(r.SlotsReconciled))
	reg.SetGauge("kvstore-recovery-leaks-reclaimed", r.LeaksReclaimed)
	reg.SetGauge("kvstore-recovery-pwbs", r.PWBs)
	reg.SetGauge("kvstore-recovery-psyncs", r.PSyncs)
}
