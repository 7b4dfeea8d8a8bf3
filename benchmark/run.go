package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/recovery"
	"repro/internal/telemetry"
)

var epoch = time.Now()

// now is the benchmark's one clock: host wall-clock nanoseconds.
func now() int64 { return int64(time.Since(epoch)) }

// samplePeriod is the end-to-end latency sampling period: timestamping one
// op in 16 per client keeps the two clock reads (~75 ns) under 1% of a
// ~1 us ModeFast op. ModeStrict ops cost three times as much and a crash
// round has a tenth of the ops, so there it is one in 4: the same relative
// cost, and enough samples beyond a round's p99 to pin it.
func samplePeriod(mode pmem.Mode) int {
	if mode == pmem.ModeStrict {
		return 4
	}
	return 16
}

// Latency sample classes.
const (
	latRead = iota
	latUpdate
)

// roundResult is what one round measured. A round is one fresh pool, one
// structure built and preloaded in it, and the workload's fixed op count.
type roundResult struct {
	setupS float64 // pool + structure construction + preload + client handles
	wallS  float64 // the measured phase; on a crash round it spans the crash/recover cycles
	ops    int     // attempted
	failed int
	err    error // first failure, for the report

	lat       [2][]int64 // sampled op latencies, ns
	stats     pmem.Stats // persistence counters over the measured phase
	words     int        // pool words allocated over the measured phase
	recoverMs []float64  // wall time of each structure recovery

	// Traced rounds only: every op is a span, so lat holds every op.
	spans []span
	sum   spanStats
	p999  float64 // over all ops

	// kvstore rounds only.
	shardImbalance   float64 // max/mean Store.ShardOps
	liveBlocksPerKey float64 // value blocks allocated per live key after recovery

	crash crashStats
}

// crashStats is what the crash/recover cycles of a ModeStrict round cost.
type crashStats struct {
	crashes        int
	captureMs      []float64 // Pool.Crash
	poolRecoverMs  []float64 // Pool.Recover
	parallelMs     []float64 // kvstore.RecoverParallel (traced rounds, alternate crashes)
	recoverOpNs    []float64 // per-thread Recover* replays
	recoverPWBs    uint64    // sum of LastRecovery().PWBs
	slotsReconcile int
	leaksReclaimed uint64
}

func (r *roundResult) fail(n int, err error) {
	r.failed += n
	if r.err == nil {
		r.err = err
	}
}

// clientState is one client's private tallies; each lives in its own
// allocation so two clients never write one cache line.
type clientState struct {
	lat       [2][]int64
	recoverNs []float64 // Recover* replays after a crash
	spans     []span
	net       []int32 // successful inserts - successful deletes, by key
	n         int     // ops started, for the sampling period
	failed    int
	err       error
}

func newClientState(w workload, ops int, traced bool) *clientState {
	cs := &clientState{net: make([]int32, w.keys+1)}
	for i := range cs.lat {
		cs.lat[i] = make([]int64, 0, ops/samplePeriod(w.mode)+1)
	}
	if traced {
		cs.spans = make([]span, 0, ops)
	}
	return cs
}

// record accounts one completed op: its response for the membership audit,
// its failure if any, and, when it was timed, its latency sample and span.
func (cs *clientState) record(w workload, o op, res bool, err error, t0, t1 int64, traced bool) {
	if err != nil {
		cs.failed++
		if cs.err == nil {
			cs.err = err
		}
	} else if res {
		switch o.kind() {
		case opInsert:
			cs.net[o.key()]++
		case opDelete:
			cs.net[o.key()]--
		}
	}
	if t1 == 0 {
		return
	}
	class := latUpdate
	if o.kind() == opRead {
		class = latRead
	}
	cs.lat[class] = append(cs.lat[class], t1-t0)
	if traced {
		cs.spans = append(cs.spans, span{name: opSpanName(w.structure, o, res), start: t0, end: t1})
	}
}

// setup builds the round's pool and structure and preloads it, timing the
// whole of it: this is what a user waits for before the first request.
func setup(w workload, st *streams) (pool *pmem.Pool, tgt target, setupS float64, err error) {
	runtime.GC() // the previous round's pool is garbage; collect it off the clock
	t0 := now()
	pool = newPool(w.mode, w.poolWords)
	if tgt, err = build(w, pool); err != nil {
		return nil, nil, 0, err
	}
	loader := tgt.client(pool.NewThread(0))
	for _, k := range st.preload {
		if _, err := loader.do(mkOp(opInsert, k)); err != nil {
			return nil, nil, 0, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	loader.flush()
	return pool, tgt, float64(now()-t0) / 1e9, nil
}

// runFastRound runs one closed-loop round on a ModeFast pool: every client
// issues its stream back to back, waiting for each reply.
func runFastRound(w workload, st *streams, traced bool) (r roundResult) {
	pool, tgt, setupS, err := setup(w, st)
	if err != nil {
		r.fail(1, err)
		return r
	}
	clients := len(st.perClient)
	states := make([]*clientState, clients)
	handles := make([]client, clients)
	t0 := now()
	for c := range handles {
		states[c] = newClientState(w, len(st.perClient[c]), traced)
		handles[c] = tgt.client(pool.NewThread(c + 1))
	}
	r.setupS = setupS + float64(now()-t0)/1e9
	base, words0 := pool.Snapshot(), pool.AllocatedWords()

	var wg sync.WaitGroup
	start := make(chan struct{})
	sampleEvery := samplePeriod(w.mode)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(cl client, cs *clientState, ops []op) {
			defer wg.Done()
			i := 0
			defer func() {
				// Pool exhaustion is the one failure the library raises as
				// a panic; every op the client could not run has failed.
				if p := recover(); p != nil {
					cs.failed += len(ops) - i
					if cs.err == nil {
						cs.err = fmt.Errorf("client stopped at op %d: %v", i, p)
					}
				}
			}()
			<-start
			for ; i < len(ops); i++ {
				o := ops[i]
				if traced || i%sampleEvery == 0 {
					t0 := now()
					res, err := cl.do(o)
					cs.record(w, o, res, err, t0, now(), traced)
				} else {
					res, err := cl.do(o)
					cs.record(w, o, res, err, 0, 0, false)
				}
			}
			cl.flush()
		}(handles[c], states[c], st.perClient[c])
	}
	t0 = now()
	close(start)
	wg.Wait()
	t1 := now()
	r.wallS = float64(t1-t0) / 1e9
	r.stats = pool.Snapshot().Sub(base)
	r.words = pool.AllocatedWords() - words0

	if traced {
		r.spans = append(r.spans, span{name: spRound, parent: -1, start: t0, end: t1})
	}
	for c, cs := range states {
		r.ops += len(st.perClient[c])
		r.fail(cs.failed, cs.err)
		for i := range cs.lat {
			r.lat[i] = append(r.lat[i], cs.lat[i]...)
		}
		if traced {
			adopt(&r.spans, spClient, 0, t0, t1, cs.spans)
		}
	}
	r.closeTrace(traced)

	audit := pool.NewThread(clients + 1)
	if err := tgt.check(audit); err != nil {
		r.fail(1, err)
	}
	r.auditMembership(w, st, states, tgt.keys(audit))
	if kv, ok := tgt.(kvTarget); ok {
		r.shardImbalance = shardImbalance(kv.s)
	}

	// Restart: recover the structure from the image the round left, as a
	// clean restart would before clients resume. Repeated, and the round
	// reports the median, because one list attach is under a microsecond.
	// (No Recover* replay here: a recovery function is valid only right
	// after the crash that interrupted its op, not on a quiescent image
	// other clients have since changed.)
	reps := 9
	if w.structure == onList {
		reps = 400
	}
	runtime.GC() // or the round's garbage gets collected during some of the restarts
	for i := 0; i < reps; i++ {
		t := now()
		back, err := reattach(w, pool)
		r.recoverMs = append(r.recoverMs, float64(now()-t)/1e6)
		if err != nil {
			r.fail(1, fmt.Errorf("restart: %w", err))
			break
		}
		if kv, ok := back.(kvTarget); ok && i == 0 {
			r.liveBlocksPerKey = liveBlocksPerKey(kv.s, audit)
		}
	}
	return r
}

// closeTrace summarizes a traced round's spans.
func (r *roundResult) closeTrace(traced bool) {
	if !traced {
		return
	}
	r.sum = summarize(r.spans)
	r.p999 = percentile(append(append([]int64(nil), r.lat[latRead]...), r.lat[latUpdate]...), 0.999)
}

// auditMembership checks every key's final membership against what the
// clients were told: preloaded + successful inserts - successful deletes
// must be 1 for a member and 0 otherwise. Each disagreeing key is one
// failed operation.
func (r *roundResult) auditMembership(w workload, st *streams, states []*clientState, final []int64) {
	net := make([]int32, w.keys+1)
	for _, k := range st.preload {
		net[k]++
	}
	for _, cs := range states {
		for k, d := range cs.net {
			net[k] += d
		}
	}
	for _, k := range final {
		if k < 1 || k > w.keys {
			r.fail(1, fmt.Errorf("audit: foreign key %d in the structure", k))
			continue
		}
		net[k]--
	}
	for k, d := range net {
		if d != 0 {
			r.fail(1, fmt.Errorf("audit: key %d: responses say %+d more than the structure holds", k, d))
		}
	}
}

func shardImbalance(s *kvstore.Store) float64 {
	var sum, most uint64
	for si := 0; si < s.NumShards(); si++ {
		n := s.ShardOps(si)
		sum += n
		if n > most {
			most = n
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(most) * float64(s.NumShards()) / float64(sum)
}

// liveBlocksPerKey reads a freshly recovered store's allocated value
// blocks through its telemetry gauges (the shard allocators are private)
// and divides by its keys: 1.0, or blocks are leaking.
func liveBlocksPerKey(s *kvstore.Store, ctx *pmem.ThreadCtx) float64 {
	reg := telemetry.NewRegistry(telemetry.Config{})
	s.PublishTelemetry(reg)
	keys := len(s.Keys(ctx))
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == "kvstore-blocks-live" && keys > 0 {
			return float64(g.Value) / float64(keys)
		}
	}
	return 0
}

// crashRun is the state the clients of a crash round share across the
// crash/recover cycles: the harness survives the crashes, the simulated
// threads do not.
type crashRun struct {
	w      workload
	st     *streams
	pool   *pmem.Pool
	traced bool
	sample int          // latency sampling period
	done   atomic.Int64 // ops completed, over all clients
	next   atomic.Int64 // index of the next crash to arm
}

// crashClient adapts a client to the chaos schedule, which owns the
// invoke / run / recover sequencing of each request.
type crashClient struct {
	run *crashRun
	cl  client
	cs  *clientState
}

var chaosKinds = [...]int{opRead: chaos.KindFind, opInsert: chaos.KindInsert, opDelete: chaos.KindDelete}

func fromChaos(o chaos.Op) op {
	for k, ck := range chaosKinds {
		if ck == o.Kind {
			return mkOp(opKind(k), o.Key)
		}
	}
	panic("unknown chaos op kind")
}

func (c *crashClient) Invoke()                   { c.cl.invoke() }
func (c *crashClient) Run(o chaos.Op) uint64     { return c.exec(fromChaos(o), false) }
func (c *crashClient) Recover(o chaos.Op) uint64 { return c.exec(fromChaos(o), true) }

func (c *crashClient) exec(o op, recovering bool) (resp uint64) {
	run, cs := c.run, c.cs
	defer func() {
		if p := recover(); p != nil {
			if p == pmem.ErrCrashed {
				panic(p) // the schedule parks this thread and resumes it after recovery
			}
			cs.failed++
			if cs.err == nil {
				cs.err = fmt.Errorf("op %v(%d) panicked: %v", o.kind(), o.key(), p)
			}
		}
	}()
	timed := run.traced || recovering || cs.n%run.sample == 0
	cs.n++
	var t0, t1 int64
	var res bool
	var err error
	if timed {
		t0 = now()
	}
	if recovering {
		res, err = c.cl.recoverOp(o)
	} else {
		res, err = c.cl.do(o)
	}
	if timed {
		t1 = now()
	}
	if recovering {
		// A replay is not a normal-path latency sample; it is its own class.
		cs.recoverNs = append(cs.recoverNs, float64(t1-t0))
		if run.traced {
			cs.spans = append(cs.spans, span{name: spKVRecoverOp, start: t0, end: t1})
		}
		cs.record(run.w, o, res, err, 0, 0, false)
	} else {
		cs.record(run.w, o, res, err, t0, t1, run.traced)
	}
	// Arm the next crash once the round has completed that crash's op count.
	n := run.done.Add(1)
	if i := run.next.Load(); int(i) < len(run.st.crashAt) && n >= int64(run.st.crashAt[i]) &&
		run.next.CompareAndSwap(i, i+1) {
		run.pool.SetCrashAfter(run.st.crashAfter[i])
	}
	if res {
		return 1
	}
	return 0
}

// runCrashRound runs one round on a ModeStrict pool with the workload's
// crashes: the chaos schedule resumes the clients, a crash parks them, the
// driver resolves the crash, recovers pool and store, and resumes.
func runCrashRound(w workload, st *streams, traced bool, eng *recovery.Engine, seed int64) (r roundResult) {
	pool, tgt, setupS, err := setup(w, st)
	if err != nil {
		r.fail(1, err)
		return r
	}
	store := tgt.(kvTarget).s
	clients := len(st.perClient)
	run := &crashRun{w: w, st: st, pool: pool, traced: traced, sample: samplePeriod(w.mode)}
	states := make([]*clientState, clients)
	for c := range states {
		states[c] = newClientState(w, len(st.perClient[c]), traced)
	}
	sched := chaos.NewSchedule(clients, len(st.perClient[0]), 0,
		func(_ *rand.Rand, tid, i int) chaos.Op {
			o := st.perClient[tid-1][i]
			return chaos.Op{Kind: chaosKinds[o.kind()], Key: o.key()}
		})
	policy := pmem.CrashPolicy{Rng: rand.New(rand.NewSource(seed)), CommitProb: 0.5, EvictProb: 0.1}
	r.setupS = setupS
	base, words0 := pool.Snapshot(), pool.AllocatedWords()

	// Counters die with their thread contexts at Pool.Recover, so they are
	// summed segment by segment.
	var total pmem.Stats
	t0 := now()
	if traced {
		r.spans = append(r.spans, span{name: spRound, parent: -1, start: t0})
	}
	for {
		seg := now()
		err := sched.Resume(func(tid int) (chaos.Thread, error) {
			return &crashClient{run: run, cl: kvTarget{store}.client(pool.NewThread(tid)), cs: states[tid-1]}, nil
		})
		pool.SetCrashAfter(0)
		if traced {
			end := now()
			for _, cs := range states {
				adopt(&r.spans, spSegment, 0, seg, end, cs.spans)
				cs.spans = cs.spans[:0]
			}
		}
		if err != nil {
			r.fail(1, err)
			break
		}
		if !pool.CrashPending() {
			break
		}
		addStats(&total, pool.Snapshot())
		c := &r.crash
		c.crashes++
		tc := now()
		pool.Crash(policy)
		tr := now()
		pool.Recover()
		tk := now()
		parallel := traced && c.crashes%2 == 0
		if parallel {
			store, err = kvstore.RecoverParallel(pool, rootSlot, eng)
		} else {
			store, err = kvstore.Recover(pool, rootSlot)
		}
		te := now()
		c.captureMs = append(c.captureMs, float64(tr-tc)/1e6)
		c.poolRecoverMs = append(c.poolRecoverMs, float64(tk-tr)/1e6)
		if parallel {
			c.parallelMs = append(c.parallelMs, float64(te-tk)/1e6)
		} else {
			r.recoverMs = append(r.recoverMs, float64(te-tk)/1e6)
		}
		if traced {
			id := adopt(&r.spans, spCrash, 0, tc, te, nil)
			name := spKVRecover
			if parallel {
				name = spKVRecoverParallel
			}
			r.spans = append(r.spans,
				span{name: spCrashCapture, parent: id, start: tc, end: tr},
				span{name: spPoolRecover, parent: id, start: tr, end: tk},
				span{name: name, parent: id, start: tk, end: te})
		}
		if err != nil {
			r.fail(1, fmt.Errorf("recover after crash %d: %w", c.crashes, err))
			break
		}
		lr := store.LastRecovery()
		c.recoverPWBs += lr.PWBs
		c.slotsReconcile += lr.SlotsReconciled
		c.leaksReclaimed += lr.LeaksReclaimed
	}
	t1 := now()
	r.wallS = float64(t1-t0) / 1e9
	addStats(&total, pool.Snapshot())
	r.stats = total.Sub(base)
	r.words = pool.AllocatedWords() - words0
	if traced {
		r.spans[0].end = t1
	}
	for c, cs := range states {
		r.ops += len(st.perClient[c])
		r.fail(cs.failed, cs.err)
		for i := range cs.lat {
			r.lat[i] = append(r.lat[i], cs.lat[i]...)
		}
		r.crash.recoverOpNs = append(r.crash.recoverOpNs, cs.recoverNs...)
	}
	r.closeTrace(traced)
	if r.err != nil {
		return r
	}
	if !sched.Done() {
		r.fail(1, fmt.Errorf("schedule stopped early"))
	}
	if r.crash.crashes != w.crashes {
		r.fail(1, fmt.Errorf("%d crashes fired, the stream plans %d", r.crash.crashes, w.crashes))
	}

	// Audit on a freshly recovered store: invariants, the allocator
	// contract, and exactly-once per shard.
	final, err := kvstore.Recover(pool, rootSlot)
	if err != nil {
		r.fail(1, fmt.Errorf("final recover: %w", err))
		return r
	}
	audit := pool.NewThread(clients + 1)
	if err := final.CheckInvariants(audit, true); err != nil {
		r.fail(1, err)
	}
	if err := final.AuditPostRecovery(audit); err != nil {
		r.fail(1, err)
	}
	r.auditExactlyOnce(final, st, sched.Logs(), final.Keys(audit))
	r.shardImbalance = shardImbalance(store)
	r.liveBlocksPerKey = liveBlocksPerKey(final, audit)
	return r
}

// auditExactlyOnce runs the detectability oracle shard by shard: with the
// preload as thread 0's log, every key's successful inserts and deletes
// must alternate and end at its final membership. Each shard the oracle
// rejects is one failed operation.
func (r *roundResult) auditExactlyOnce(s *kvstore.Store, st *streams, logs [][]chaos.OpRecord, final []int64) {
	n := s.NumShards()
	shardLogs := make([][][]chaos.OpRecord, n)
	for si := range shardLogs {
		shardLogs[si] = make([][]chaos.OpRecord, len(logs)+1)
	}
	for _, k := range st.preload {
		l := &shardLogs[s.ShardOf(k)][0]
		*l = append(*l, chaos.OpRecord{Op: chaos.Op{Kind: chaos.KindInsert, Key: k}, Result: 1})
	}
	for t, log := range logs {
		for _, rec := range log {
			l := &shardLogs[s.ShardOf(rec.Op.Key)][t+1]
			*l = append(*l, rec)
		}
	}
	shardKeys := make([][]int64, n)
	for _, k := range final {
		shardKeys[s.ShardOf(k)] = append(shardKeys[s.ShardOf(k)], k)
	}
	for si := 0; si < n; si++ {
		if err := chaos.CheckSetAlternation(shardLogs[si], chaos.SetClassifier, shardKeys[si]); err != nil {
			r.fail(1, fmt.Errorf("exactly-once, shard %d: %w", si, err))
		}
	}
}

// addStats accumulates s into dst.
func addStats(dst *pmem.Stats, s pmem.Stats) {
	if dst.PWBsBySite == nil {
		dst.PWBsBySite = map[string]uint64{}
	}
	for k, v := range s.PWBsBySite {
		dst.PWBsBySite[k] += v
	}
	dst.PWBs += s.PWBs
	dst.PSyncs += s.PSyncs
	dst.PFences += s.PFences
	dst.SpinUnits += s.SpinUnits
	dst.PWBsDeferred += s.PWBsDeferred
	dst.PWBsMerged += s.PWBsMerged
	dst.PSyncsMerged += s.PSyncsMerged
	dst.BatchDrains += s.BatchDrains
	dst.PWBsElided += s.PWBsElided
	dst.PWBsExecuted += s.PWBsExecuted
}
