package kvstore

import (
	"fmt"

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

// recoverShard re-attaches shard si and makes it consistent: the embedded
// index and the shard allocator are validated and rebuilt, every live
// slot whose key the index does not contain is durably tombstoned (a put
// that crashed before its index insert, or a delete that crashed after
// its index delete), foreign or duplicate slots are rejected as
// corruption, and RecoverGC rewrites the allocator's bitmaps to exactly
// the surviving blocks. All durable words touched belong to shard si, and
// the per-shard instruction sequence does not depend on which worker runs
// it — which is why serial and parallel recovery produce byte-identical
// durable state.
func (s *Store) recoverShard(ctx *pmem.ThreadCtx, si int) (reconciled int, err error) {
	pool := s.pool
	entry := s.dirEntry(si)
	table := pmem.Addr(ctx.Load(entry + deIndex*pmem.WordSize))
	slots := pmem.Addr(ctx.Load(entry + deSlots*pmem.WordSize))
	if !pool.ValidWords(slots, s.slotCap) {
		return 0, fmt.Errorf("kvstore: shard %d: slot table %#x outside pool", si, uint64(slots))
	}
	m, err := rhash.AttachEmbedded(s.eng, ctx, table, s.nBuckets)
	if err != nil {
		return 0, fmt.Errorf("kvstore: shard %d: %w", si, err)
	}
	alloc, err := rmm.AttachAt(ctx, entry+deAlloc*pmem.WordSize)
	if err != nil {
		return 0, fmt.Errorf("kvstore: shard %d: %w", si, err)
	}
	sh := &shard{idx: m, alloc: alloc, slots: slots}
	// One map sized to the index holds both facts per key: an index member
	// (keyMember) and a live slot already seen (keySeen).
	const (
		keyMember uint8 = 1 << iota
		keySeen
	)
	keys := m.Keys(ctx)
	state := make(map[int64]uint8, len(keys))
	for _, k := range keys {
		state[k] = keyMember
	}
	members := len(state)
	roots := make([]pmem.Addr, 0, members)
	dirty := false
	for j := 0; j < s.slotCap; j++ {
		w := s.slotAddr(sh, j)
		v := ctx.LoadAndPersist(s.siteSlotObs, w)
		if v == slotEmpty || v == slotTombstone {
			continue
		}
		b := pmem.Addr(v)
		if !alloc.Owns(b) {
			return 0, fmt.Errorf("kvstore: shard %d slot %d: block %#x not owned by shard allocator", si, j, v)
		}
		k := int64(ctx.Load(b + bKey*pmem.WordSize))
		st := state[k]
		if st&keySeen != 0 {
			return 0, fmt.Errorf("kvstore: shard %d: key %d has two live slots", si, k)
		}
		state[k] = st | keySeen
		if st&keyMember == 0 || s.shardOf(k) != si {
			ctx.Store(w, slotTombstone)
			ctx.PWB(s.siteSlot, w)
			dirty = true
			reconciled++
			continue
		}
		roots = append(roots, b)
	}
	if dirty {
		ctx.PSync()
	}
	// The commit protocol publishes a key's slot durably before its index
	// insert linearizes, so an index member without a live slot means the
	// store's durable state was corrupted outside the protocol.
	if len(roots) != members {
		return 0, fmt.Errorf("kvstore: shard %d: %d index members vs %d consistent slots", si, members, len(roots))
	}
	if err := alloc.RecoverGC(ctx, func(visit func(pmem.Addr) error) error {
		for _, b := range roots {
			if err := visit(b); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, fmt.Errorf("kvstore: shard %d: %w", si, err)
	}
	if st := alloc.Stats(); st.MarksRestored != 0 {
		return 0, fmt.Errorf("kvstore: shard %d: %d blocks were published before their bitmap bit", si, st.MarksRestored)
	}
	s.shards[si] = sh
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
	reconciled := 0
	for si := 0; si < s.nShards; si++ {
		n, err := s.recoverShard(boot, si)
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
// and persistence-instruction totals match Recover exactly.
func RecoverParallel(pool *pmem.Pool, rootSlot int, eng *recovery.Engine) (*Store, error) {
	base := pool.Snapshot()
	s, _, err := attachStore(pool, rootSlot, eng.BaseTID())
	if err != nil {
		return nil, err
	}
	perShard := make([]int, s.nShards)
	err = eng.For(pool, recovery.PhaseAttach, s.nShards,
		func(ctx *pmem.ThreadCtx, si int) error {
			n, err := s.recoverShard(ctx, si)
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

// RecoverCAS is CAS's value-witnessed recovery function: if the durable
// value equals new, the swap committed before the crash; if it equals
// old, the swap never committed and is re-executed; any other value means
// the precondition already failed. The witness cannot distinguish the
// two when old == new — that degenerate CAS is a no-op either way, but
// its reported result after a crash may be a false positive; callers
// needing exactness there should use Put.
func (h *Handle) RecoverCAS(key int64, old, new uint64) (bool, error) {
	s := h.s
	si := s.shardOf(key)
	sh := s.shards[si]
	s.lock(h.ctx, sh)
	defer s.unlock(sh)
	pos, block, _ := h.probe(sh, key)
	if block == pmem.Null {
		return false, nil
	}
	v := h.ctx.Load(block + bVal*pmem.WordSize)
	if v == new {
		return true, nil
	}
	if v != old {
		return false, nil
	}
	ttl := h.ctx.Load(block + bTTL*pmem.WordSize)
	nb, err := h.newBlock(si, key, ttl, new)
	if err != nil {
		return false, err
	}
	h.publish(sh, pos, nb)
	if err := h.am(si).Free(block); err != nil {
		return false, err
	}
	return true, nil
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
	puts, gets, deletes, casOps := s.opCounts()
	reg.SetGauge("kvstore-shards", uint64(s.nShards))
	reg.SetGauge("kvstore-puts", puts)
	reg.SetGauge("kvstore-gets", gets)
	reg.SetGauge("kvstore-deletes", deletes)
	reg.SetGauge("kvstore-cas", casOps)
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
