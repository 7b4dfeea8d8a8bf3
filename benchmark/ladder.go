package main

import (
	"fmt"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/recovery"
	"repro/internal/rhash"
	"repro/internal/rmm"
	"repro/internal/tracking"
)

// The ladder drives each layer below the workload's top one standalone,
// with one client, on the call stream the workload induces on it. A call
// made inside Put cannot be wrapped from outside, so a layer's self time
// is its own mean span less the means of its children's spans here, and
// the residual is reported as such. A layer the workload bypasses is
// driven all the same, at that layer's own geometry, so every per-layer
// metric is measured on every workload.

// Ladder stage sizes, in calls.
const (
	ladderPrimCalls = 200_000
	ladderOps       = 100_000
	ladderRecovers  = 3
)

// listLadderKV is the store geometry the list workload's stream is replayed
// on: the kvstore defaults, with slots for its 500 keys.
var listLadderKV = kvstore.Config{Shards: 16, Buckets: 8, SlotsPerShard: 128,
	MaxThreads: maxThreads, ChunkBlocks: 64, MaxChunks: 8}

// ladderKV is the store geometry w's lower layers are sized from.
func ladderKV(w workload) kvstore.Config {
	if w.structure == onKVStore {
		return w.kv
	}
	return listLadderKV
}

type ladderResult struct {
	timerNs float64 // one now() read

	loadNs, storeNs, casNs           float64
	pwbPrivateNs, pwbSharedNs, psync float64

	spans []span // rhash.*, rmm.* and tracking.op spans under their stages
	sum   spanStats

	stackStepsPerAlloc  float64
	cacheRefillsPerKilo float64
	freesPerDelete      float64 // share of the stream's deletes that found their key

	attachMs, gcMarkMs, replayMs, verifyMs float64
	spanShare                              float64
}

var sink uint64 // keeps measured loads alive

// runLadder runs the stages that share one pool: pmem primitives, the bare
// tracking engine, the standalone hash index, the standalone allocator,
// and the parallel recovery engine over those two.
func runLadder(w workload, st *streams, eng *recovery.Engine, calls, ops int) (l ladderResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("ladder: %v", p)
		}
	}()
	t0 := now()
	for i := 0; i < calls; i++ {
		sink += uint64(now())
	}
	l.timerNs = float64(now()-t0) / float64(calls+1)

	pool := newPool(w.mode, 6<<20)
	ctx, other := pool.NewThread(1), pool.NewThread(2)
	l.primitives(pool, ctx, other, calls)
	l.trackingOps(pool, ctx, ops)

	single := st.single(ops, 0)
	kv := ladderKV(w)

	// Index: the store turns Get/Put/Delete(key) into Find/Insert/Delete(key)
	// on a shard's hash map; one map with every shard's buckets has the
	// same chain length.
	m := rhash.New(pool, kv.Shards*kv.Buckets, maxThreads, 0)
	idx := hashTarget{m}.client(ctx)
	for _, k := range single.preload {
		idx.do(mkOp(opInsert, k))
	}
	stage := now()
	hashSpans := make([]span, 0, ops)
	for _, o := range single.perClient[0] {
		t := now()
		idx.do(o)
		hashSpans = append(hashSpans, span{name: spHashFind + uint8(o.kind()), start: t, end: now()})
	}
	l.adopt(stage, hashSpans)

	// Value blocks: a Put of a fresh key allocates, an overwrite allocates
	// and frees, a Delete of a present key frees. One allocator with every
	// shard's blocks per chunk stands for the shards' private ones.
	alloc := rmm.NewGrowable(pool, 4, kv.ChunkBlocks*kv.Shards, kv.MaxChunks, 1)
	ah := alloc.Handle(ctx)
	held := map[int64]pmem.Addr{}
	for _, k := range single.preload {
		held[k] = ah.Alloc()
	}
	before := alloc.Stats()
	stage = now()
	var rmmSpans []span
	timedAlloc := func() pmem.Addr {
		t := now()
		b := ah.Alloc()
		rmmSpans = append(rmmSpans, span{name: spRMMAlloc, start: t, end: now()})
		if b == pmem.Null {
			panic("standalone allocator exhausted")
		}
		return b
	}
	timedFree := func(b pmem.Addr) {
		t := now()
		err := ah.Free(b)
		rmmSpans = append(rmmSpans, span{name: spRMMFree, start: t, end: now()})
		if err != nil {
			panic(err)
		}
	}
	deletes, hits := 0, 0
	for _, o := range single.perClient[0] {
		old, present := held[o.key()]
		switch o.kind() {
		case opInsert:
			held[o.key()] = timedAlloc()
			if present {
				timedFree(old)
			}
		case opDelete:
			deletes++
			if present {
				hits++
				timedFree(old)
				delete(held, o.key())
			}
		}
	}
	l.freesPerDelete = ratio(float64(hits), float64(deletes))
	l.adopt(stage, rmmSpans)
	ah.Flush()
	after := alloc.Stats()
	if n := float64(after.Allocs - before.Allocs); n > 0 {
		l.stackStepsPerAlloc = float64(after.StackSteps-before.StackSteps) / n
		l.cacheRefillsPerKilo = float64(after.CacheRefills-before.CacheRefills) * 1000 / n
	}
	l.sum = summarize(l.spans)

	// Recovery engine: every parallel phase, over the index and the
	// allocator as the stream left them.
	live := make([]pmem.Addr, 0, len(held))
	for _, b := range held {
		live = append(live, b)
	}
	last := single.perClient[0][len(single.perClient[0])-1]
	eng.ResetTimings()
	for i := 0; i < ladderRecovers; i++ {
		m2, err := rhash.AttachParallel(pool, 0, eng)
		if err != nil {
			return l, err
		}
		a2, err := rmm.AttachParallel(pool, 1, eng)
		if err != nil {
			return l, err
		}
		if err := a2.RecoverGCParallel(eng, rmm.ShardAddrs(live, eng.Workers())); err != nil {
			return l, err
		}
		err = eng.ReplayThreads(1, func(int) error {
			_, err := hashTarget{m2}.client(pool.NewThread(1)).recoverOp(last)
			return err
		})
		if err != nil {
			return l, err
		}
		if err := m2.CheckInvariantsParallel(eng, true); err != nil {
			return l, err
		}
		if n, err := a2.InUseParallel(eng); err != nil || n != len(live) {
			return l, fmt.Errorf("ladder: %d blocks in use after RecoverGC, %d held (%v)", n, len(live), err)
		}
	}
	var items, spanItems int64
	for name, ps := range eng.Stats() {
		ms := float64(ps.WallNs) / 1e6 / ladderRecovers
		switch name {
		case recovery.PhaseAttach.String():
			l.attachMs = ms
		case recovery.PhaseGCMark.String():
			l.gcMarkMs = ms
		case recovery.PhaseReplay.String():
			l.replayMs = ms
		case recovery.PhaseVerify.String():
			l.verifyMs = ms
		}
		items += ps.Items
		spanItems += ps.SpanItems
	}
	if items > 0 {
		l.spanShare = float64(spanItems) / float64(items)
	}
	return l, nil
}

// adopt files one stage's spans under a ladder span.
func (l *ladderResult) adopt(start int64, children []span) {
	adopt(&l.spans, spLadder, -1, start, now(), children)
}

// primitives prices the pool's accessors one at a time, each as the mean
// over a loop (a clock read per call would cost more than the call).
func (l *ladderResult) primitives(pool *pmem.Pool, ctx, other *pmem.ThreadCtx, calls int) {
	const lines = 1024
	mem := ctx.AllocLines(lines)
	word := func(i int) pmem.Addr { return mem + pmem.Addr(i%(lines*pmem.LineWords)*pmem.WordSize) }
	per := func(t0 int64) float64 { return float64(now()-t0) / float64(calls) }
	site := pool.RegisterSite("ladder/pwb")

	t := now()
	for i := 0; i < calls; i++ {
		sink += ctx.Load(word(i))
	}
	l.loadNs = per(t)

	t = now()
	for i := 0; i < calls; i++ {
		ctx.Store(word(i), uint64(i))
	}
	l.storeNs = per(t)

	ctx.Store(mem, 0)
	t = now()
	for i := 0; i < calls; i++ {
		ctx.CAS(mem, uint64(i), uint64(i+1)) // always succeeds
	}
	l.casNs = per(t)

	// A line only this thread flushes: the cost model's cheapest write-back.
	t = now()
	for i := 0; i < calls; i++ {
		ctx.PWB(site, mem)
	}
	l.pwbPrivateNs = per(t)
	ctx.PSync()

	// A line two threads flush in strict alternation: every write-back
	// finds the line last flushed by the other thread, the model's most
	// expensive case. One goroutine drives both contexts so the
	// interleaving, and with it the heat, repeats exactly.
	shared := mem + pmem.LineBytes
	t = now()
	for i := 0; i < calls/2; i++ {
		ctx.PWB(site, shared)
		other.PWB(site, shared)
	}
	l.pwbSharedNs = per(t)
	ctx.PSync()
	other.PSync()

	t = now()
	for i := 0; i < calls; i++ {
		ctx.PSync()
	}
	l.psync = per(t)
}

// trackingOps runs the tracking engine with no structure around it: each
// op affects one info word and writes one field, the smallest operation
// the transformation can express. Its cost is the floor under every
// structure operation.
func (l *ladderResult) trackingOps(pool *pmem.Pool, ctx *pmem.ThreadCtx, ops int) {
	eng := tracking.New(pool, maxThreads, "ladder")
	th := eng.Thread(ctx)
	node := ctx.AllocLines(1)
	info, field := node, node+pmem.WordSize
	stage := now()
	spans := make([]span, 0, ops)
	for i := 0; i < ops; i++ {
		t := now()
		th.Invoke()
		th.BeginOp()
		val := ctx.Load(field)
		d := th.NewDesc(1, 1,
			[]tracking.AffectEntry{{InfoField: info, Observed: ctx.Load(info), Untag: true}},
			[]tracking.WriteEntry{{Field: field, Old: val, New: val + 1}}, nil)
		th.Publish(d)
		th.Help(d)
		spans = append(spans, span{name: spTrackingOp, start: t, end: now()})
	}
	l.adopt(stage, spans)
}
