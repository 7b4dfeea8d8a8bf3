package rmm

import (
	"math/bits"

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

// RecoverGC runs the offline post-crash collection: mark must visit the
// address of every reachable block, and every allocated block the mark
// does not visit is a crash leak that is reclaimed. The durable bitmaps
// are rewritten to exactly the reachable set (only differing words are
// written back), and every chunk's volatile free-stack is rebuilt from
// that set in the same pass — the free-stacks cost recovery nothing
// beyond the bitmap walk it already does. Everything runs inline on ctx.
// Recovery is offline: no Handle may allocate until RecoverGC returns,
// and handles created before it must be discarded.
func (a *Allocator) RecoverGC(ctx *pmem.ThreadCtx, mark func(visit func(pmem.Addr) error) error) error {
	reachable := make([]uint64, a.totalBitmapWords())
	if err := mark(a.marker(reachable)); err != nil {
		return err
	}
	return a.rebuild(recovery.Inline(ctx), reachable)
}

// marker returns the visit function that records a reachable block in a
// global-word-indexed mark bitmap, rejecting addresses that are not
// blocks of this allocator.
func (a *Allocator) marker(reachable []uint64) func(pmem.Addr) error {
	return func(addr pmem.Addr) error {
		g, err := a.blockIndex(addr)
		if err != nil {
			return err
		}
		idx := g % a.chunkCap
		reachable[g/a.chunkCap*a.bitmapWords+idx/64] |= 1 << uint(idx%64)
		return nil
	}
}

// rebuild is the one free-stack rebuild of attach and RecoverGC. Each
// bitmap word's free sublist is built by loop (inline or across engine
// workers; each word touches only its own state, so workers never
// conflict), then the sublists are spliced serially in word order, which
// makes the stacks a pure function of the bitmaps whatever the worker
// count. A nil reachable keeps the durable bitmaps as they are (attach);
// otherwise every word that differs from reachable is rewritten and
// written back, with a PSync per context that ran words, before any
// stack is published.
func (a *Allocator) rebuild(loop recovery.Loop, reachable []uint64) error {
	splicers := make([]*splicer, a.nChunks.Load())
	for ci := range splicers {
		splicers[ci] = newSplicer(a, ci)
	}
	var finish func(*pmem.ThreadCtx) error
	if reachable != nil {
		finish = psync
	}
	err := loop(a.totalBitmapWords(), func(ctx *pmem.ThreadCtx, wi int) error {
		w := a.wordAddr(wi)
		want := ctx.Load(w)
		if reachable != nil && reachable[wi] != want {
			cur := want
			want = reachable[wi]
			a.leaksReclaimed.Add(uint64(bits.OnesCount64(cur &^ want)))
			a.marksRestored.Add(uint64(bits.OnesCount64(want &^ cur)))
			ctx.Store(w, want)
			ctx.PWB(a.s.bit, w)
		}
		splicers[wi/a.bitmapWords].word(wi%a.bitmapWords, want)
		return nil
	}, finish)
	if err != nil {
		return err
	}
	for _, sl := range splicers {
		sl.commit()
	}
	return nil
}

// psync is rebuild's per-context finish: the rewritten words are durable
// before any stack is published.
func psync(ctx *pmem.ThreadCtx) error {
	ctx.PSync()
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

// RecoverGCParallel is RecoverGC on the engine (PhaseGCMark): the mark
// shards are dealt across the workers with For, each into its own
// bitmap, the bitmaps are ORed, and rebuild runs dealt across the
// workers. The durable state and the volatile stacks are identical to
// RecoverGC from the same marks, whatever the worker count.
func (a *Allocator) RecoverGCParallel(eng *recovery.Engine, shards []MarkShard) error {
	reachable, err := a.markShards(eng, shards)
	if err != nil {
		return err
	}
	return a.rebuild(eng.Loop(a.pool, recovery.PhaseGCMark), reachable)
}

// markShards runs every mark shard into a bitmap of its own on the
// engine's workers and returns their OR.
func (a *Allocator) markShards(eng *recovery.Engine, shards []MarkShard) ([]uint64, error) {
	nWords := a.totalBitmapWords()
	marks := make([][]uint64, len(shards))
	err := eng.For(a.pool, recovery.PhaseGCMark, len(shards), func(ctx *pmem.ThreadCtx, i int) error {
		marks[i] = make([]uint64, nWords)
		return shards[i](ctx, a.marker(marks[i]))
	}, nil)
	if err != nil {
		return nil, err
	}
	reachable := make([]uint64, nWords)
	for _, m := range marks {
		for wi, v := range m {
			reachable[wi] |= v
		}
	}
	return reachable, nil
}

// AttachParallel is Attach with the free-stack rebuild dealt across the
// engine's workers (PhaseAttach); the rebuilt stacks are identical to
// Attach's. The phase is read-only with respect to durable state.
func AttachParallel(pool *pmem.Pool, rootSlot int, eng *recovery.Engine) (*Allocator, error) {
	return attach(pool, rootSlot, pool.NewThread(eng.BaseTID()), eng.Loop(pool, recovery.PhaseAttach))
}

// InUseParallel is InUse with the bitmap words dealt across the engine's
// workers (PhaseVerify). The frozen end-to-end benchmark is its caller.
func (a *Allocator) InUseParallel(eng *recovery.Engine) (int, error) {
	return a.inUse(eng.Loop(a.pool, recovery.PhaseVerify))
}
