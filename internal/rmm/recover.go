package rmm

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/recovery"
)

// totalBitmapWords is the bitmap word count across all published chunks;
// global word wi belongs to chunk wi/bitmapWords.
func (a *Allocator) totalBitmapWords() int { return int(a.nChunks.Load()) * a.bitmapWords }

// wordAddr returns the durable address of global bitmap word wi.
func (a *Allocator) wordAddr(wi int) pmem.Addr {
	c := a.chunkAt(wi / a.bitmapWords)
	return c.bitmap + pmem.Addr(wi%a.bitmapWords*pmem.WordSize)
}

// markWord records global block index g in a global-word-indexed mark
// bitmap.
func (a *Allocator) markWord(reachable []uint64, g int) {
	ci, idx := g/a.chunkCap, g%a.chunkCap
	wi := ci*a.bitmapWords + idx/64
	reachable[wi] |= 1 << uint(idx%64)
}

// RecoverGC runs the offline post-crash collection: mark must visit the
// address of every reachable block, and every allocated block the mark
// does not visit is a crash leak that is reclaimed. The durable bitmaps
// are rewritten to exactly the reachable set (only differing words are
// written back), and every chunk's volatile free-stack is rebuilt from
// that set in the same pass — the free-stacks cost recovery nothing
// beyond the bitmap walk it already does. Recovery is offline: no Handle
// may allocate until RecoverGC returns, and handles created before it
// must be discarded.
func (a *Allocator) RecoverGC(ctx *pmem.ThreadCtx, mark func(visit func(pmem.Addr) error) error) error {
	reachable := make([]uint64, a.totalBitmapWords())
	err := mark(func(addr pmem.Addr) error {
		g, err := a.blockIndex(addr)
		if err != nil {
			return err
		}
		a.markWord(reachable, g)
		return nil
	})
	if err != nil {
		return err
	}
	n := int(a.nChunks.Load())
	splicers := make([]*splicer, n)
	for ci := range splicers {
		splicers[ci] = newSplicer(a, ci)
	}
	for wi, want := range reachable {
		w := a.wordAddr(wi)
		if cur := ctx.Load(w); cur != want {
			a.leaksReclaimed.Add(uint64(bits.OnesCount64(cur &^ want)))
			a.marksRestored.Add(uint64(bits.OnesCount64(want &^ cur)))
			ctx.Store(w, want)
			ctx.PWB(a.s.bit, w)
		}
		splicers[wi/a.bitmapWords].word(wi%a.bitmapWords, want)
	}
	ctx.PSync()
	for _, sl := range splicers {
		sl.commit()
	}
	return nil
}

// RecoverAt re-attaches the allocator whose header address is recorded
// in the durable word at (a shard-directory entry) and runs RecoverGC on
// it, using the caller's thread context — several RecoverAt calls with
// distinct contexts may run concurrently (the kvstore recovers one
// allocator per shard across the recovery engine's workers). Only the
// header and chunk directory are read before mark runs; the free-stacks
// are built once, by RecoverGC's rebuild pass, rather than from the crash
// image first. mark receives the attached allocator for ownership
// queries (Owns) before it visits the reachable blocks; it must not
// allocate or free through it.
func RecoverAt(ctx *pmem.ThreadCtx, at pmem.Addr, mark func(a *Allocator, visit func(pmem.Addr) error) error) (*Allocator, error) {
	a, err := attachHeader(ctx.Pool(), ctx, at)
	if err != nil {
		return nil, err
	}
	if err := a.RecoverGC(ctx, func(visit func(pmem.Addr) error) error {
		return mark(a, visit)
	}); err != nil {
		return nil, err
	}
	return a, nil
}

// MarkShard marks one independent shard of the application's reachable
// set: it must invoke visit for the address of every reachable block in
// its shard, using only the thread context it is given. Shards may
// overlap (a block visited twice is simply marked twice) but their union
// must be the full reachable set.
type MarkShard func(ctx *pmem.ThreadCtx, visit func(pmem.Addr) error) error

// ShardAddrs splits an already-enumerated list of reachable block
// addresses into parts mark shards, for callers whose roots are a flat
// list rather than a traversal.
func ShardAddrs(addrs []pmem.Addr, parts int) []MarkShard {
	if parts < 1 {
		parts = 1
	}
	if parts > len(addrs) && len(addrs) > 0 {
		parts = len(addrs)
	}
	if len(addrs) == 0 {
		return nil
	}
	shards := make([]MarkShard, 0, parts)
	per := (len(addrs) + parts - 1) / parts
	for lo := 0; lo < len(addrs); lo += per {
		hi := lo + per
		if hi > len(addrs) {
			hi = len(addrs)
		}
		part := addrs[lo:hi]
		shards = append(shards, func(_ *pmem.ThreadCtx, visit func(pmem.Addr) error) error {
			for _, addr := range part {
				if err := visit(addr); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return shards
}

// RecoverGCParallel is RecoverGC with both phases parallelized on the
// engine: the mark shards run on the work-stealing queue (a shard may
// spawn further work through its worker), each worker marking a private
// volatile bitmap; the per-worker bitmaps are merged with a single OR
// pass, and the bitmap rebuild is partitioned word-by-word across the
// workers — each word's write-back decision and free-stack sublist touch
// only that word's state, so workers never conflict. The per-word
// sublists are then spliced serially in word order, making the rebuilt
// free-stacks a pure function of the reachable set: the durable state
// AND the volatile stacks are identical to serial RecoverGC from the
// same marks, regardless of worker count. No-double-allocation is
// preserved for the same reason as in the serial path — recovery is
// offline, so the full merged mark is durable (each worker ends its
// rebuild with a PSync) before any thread allocates.
func (a *Allocator) RecoverGCParallel(eng *recovery.Engine, shards []MarkShard) error {
	nWords := a.totalBitmapWords()
	locals := make([][]uint64, eng.Workers())
	tasks := make([]recovery.TaskFunc, len(shards))
	for i, shard := range shards {
		shard := shard
		tasks[i] = func(w *recovery.Worker) error {
			local := locals[w.ID]
			if local == nil {
				local = make([]uint64, nWords)
				locals[w.ID] = local
			}
			return shard(w.Ctx, func(addr pmem.Addr) error {
				g, err := a.blockIndex(addr)
				if err != nil {
					return err
				}
				a.markWord(local, g)
				return nil
			})
		}
	}
	if err := eng.RunTasks(a.pool, recovery.PhaseGCMark, tasks); err != nil {
		return err
	}
	reachable := make([]uint64, nWords)
	for _, local := range locals {
		for wi, v := range local {
			reachable[wi] |= v
		}
	}
	n := int(a.nChunks.Load())
	splicers := make([]*splicer, n)
	for ci := range splicers {
		splicers[ci] = newSplicer(a, ci)
	}
	err := eng.For(a.pool, recovery.PhaseGCMark, nWords,
		func(ctx *pmem.ThreadCtx, wi int) error {
			want := reachable[wi]
			w := a.wordAddr(wi)
			if cur := ctx.Load(w); cur != want {
				a.leaksReclaimed.Add(uint64(bits.OnesCount64(cur &^ want)))
				a.marksRestored.Add(uint64(bits.OnesCount64(want &^ cur)))
				ctx.Store(w, want)
				ctx.PWB(a.s.bit, w)
			}
			splicers[wi/a.bitmapWords].word(wi%a.bitmapWords, want)
			return nil
		},
		func(ctx *pmem.ThreadCtx) error {
			ctx.PSync()
			return nil
		})
	if err != nil {
		return err
	}
	for _, sl := range splicers {
		sl.commit()
	}
	return nil
}

// AttachParallel is Attach with the free-stack rebuild partitioned across
// the engine's workers (PhaseAttach): the header and chunk directory are
// read serially, then each bitmap word's free sublist is built in
// parallel and the sublists are spliced serially in word order, so the
// rebuilt stacks are identical to Attach's. The phase is read-only with
// respect to durable state.
func AttachParallel(pool *pmem.Pool, rootSlot int, eng *recovery.Engine) (*Allocator, error) {
	root, err := pool.RootSlotChecked(rootSlot)
	if err != nil {
		return nil, fmt.Errorf("rmm: %w", err)
	}
	boot := pool.NewThread(eng.BaseTID())
	a, err := attachHeader(pool, boot, root)
	if err != nil {
		return nil, err
	}
	n := int(a.nChunks.Load())
	splicers := make([]*splicer, n)
	for ci := range splicers {
		splicers[ci] = newSplicer(a, ci)
	}
	err = eng.For(pool, recovery.PhaseAttach, a.totalBitmapWords(),
		func(ctx *pmem.ThreadCtx, wi int) error {
			splicers[wi/a.bitmapWords].word(wi%a.bitmapWords, ctx.Load(a.wordAddr(wi)))
			return nil
		}, nil)
	if err != nil {
		return nil, err
	}
	for _, sl := range splicers {
		sl.commit()
	}
	return a, nil
}

// InUseParallel counts allocated blocks with the bitmap words partitioned
// across the engine's workers (diagnostic, word-at-a-time). The frozen
// end-to-end benchmark is its caller; TestRecoverGCSerialParallelIdentical
// and TestGrowableSerialParallelIdentical pin its count against InUse.
func (a *Allocator) InUseParallel(eng *recovery.Engine) (int, error) {
	var total atomic.Int64
	err := eng.For(a.pool, recovery.PhaseVerify, a.totalBitmapWords(),
		func(ctx *pmem.ThreadCtx, wi int) error {
			v := ctx.Load(a.wordAddr(wi))
			if rem := a.chunkCap - wi%a.bitmapWords*64; rem < 64 {
				v &= 1<<uint(rem) - 1
			}
			total.Add(int64(bits.OnesCount64(v)))
			return nil
		}, nil)
	if err != nil {
		return 0, err
	}
	return int(total.Load()), nil
}
