package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/rlist"
)

// frozenGeometry is one workload of the frozen end-to-end benchmark
// (benchmark/workloads.go) at its smoke() scale. benchmark/ is package main
// and may not change, so its geometry is copied here as literals: store
// shape, key universe, mix and, at smoke scale, a pool of at most 2<<20
// words. A zero kv.Shards runs one rlist instead of a store.
type frozenGeometry struct {
	name      string
	mode      pmem.Mode
	kv        kvstore.Config
	keys      int64   // universe [1, keys]; half of it is preloaded
	zipfTheta float64 // 0 = uniform
	readPct   int
	insertPct int // the rest deletes
	crashes   int // ModeStrict only
}

// The benchmark's maxThreads and smoke-scale pool.
const (
	frozenMaxThreads = 8
	frozenPoolWords  = 2 << 20
)

// frozenGeometries is benchmark/workloads.go's workloads table.
var frozenGeometries = []frozenGeometry{
	{name: "kv-read-heavy", mode: pmem.ModeFast,
		kv: kvstore.Config{Shards: 64, Buckets: 256, SlotsPerShard: 4096,
			MaxThreads: frozenMaxThreads, ChunkBlocks: 256, MaxChunks: 8},
		keys: 65536, zipfTheta: 0.99, readPct: 90, insertPct: 5},
	{name: "kv-update-heavy", mode: pmem.ModeFast,
		kv: kvstore.Config{Shards: 16, Buckets: 64, SlotsPerShard: 1024,
			MaxThreads: frozenMaxThreads, ChunkBlocks: 64, MaxChunks: 8},
		keys: 4096, readPct: 10, insertPct: 45},
	{name: "list-update-heavy", mode: pmem.ModeFast,
		keys: 500, readPct: 30, insertPct: 35},
	{name: "kv-crash-recover", mode: pmem.ModeStrict,
		kv: kvstore.Config{Shards: 64, Buckets: 128, SlotsPerShard: 2048,
			MaxThreads: frozenMaxThreads, ChunkBlocks: 128, MaxChunks: 8},
		keys: 32768, readPct: 50, insertPct: 25, crashes: 8},
}

// Each golden run is one client issuing countGoldenOps requests at seed
// countGoldenSeed. Crash i of a crash geometry is armed before request
// (i+1)·countGoldenOps/(crashes+1) and fires 1..crashReach pool accesses
// later, close enough to the arming request to land inside its write
// sections and force repairs.
const (
	countGoldenOps  = 20_000
	countGoldenSeed = 1
	crashReach      = 60
)

// workloadCounts is what one golden run pins. The measured phase runs from
// the end of the preload to the end of the last request; on a crash
// geometry it includes each crash's recovery, as the benchmark's does.
// The rec* fields sum kvstore LastRecovery() over every recovery of the
// run, the closing clean restart included; on the list they are the
// persistence counters of the closing rlist.Attach.
type workloadCounts struct {
	name   string
	pwbs   uint64 // executed, by the benchmark's executedPWBs rule
	syncs  uint64 // psyncs + pfences, the benchmark's psyncs_per_op numerator
	words  uint64 // pool words allocated
	crashN int    // crashes fired

	recSlots, recLeaks, recPWBs, recPSyncs uint64
}

func (c workloadCounts) row() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d, %d, %d, %d, %d},", c.name, c.pwbs, c.syncs,
		c.words, c.crashN, c.recSlots, c.recLeaks, c.recPWBs, c.recPSyncs)
}

func (c *workloadCounts) addRecovery(lr kvstore.RecoveryStats) {
	c.recSlots += uint64(lr.SlotsReconciled)
	c.recLeaks += lr.LeaksReclaimed
	c.recPWBs += lr.PWBs
	c.recPSyncs += lr.PSyncs
}

// executedPWBs is benchmark/metrics.go's rule: a ModeFast pool counts the
// write-backs it charges, and on a ModeStrict pool every recorded
// write-back that was neither merged nor elided executed.
func executedPWBs(mode pmem.Mode, st pmem.Stats) uint64 {
	if mode == pmem.ModeFast {
		return st.PWBsExecuted
	}
	return st.PWBs - st.PWBsMerged - st.PWBsElided
}

// goldenValue is the value stored under key, as benchmark/target.go's
// valueOf.
func goldenValue(key int64) uint64 { return uint64(key)*0x9e3779b97f4a7c15 | 1 }

// Request kinds of a golden run.
const (
	reqRead = iota
	reqInsert
	reqDelete
)

// requestStream returns g's request generator: a key, uniform or Zipfian
// by exact inverse-CDF lookup as the benchmark draws it, then a kind by
// the mix.
func requestStream(g frozenGeometry, rng *rand.Rand) func() (int, int64) {
	var cum []float64
	if g.zipfTheta > 0 {
		cum = make([]float64, g.keys)
		sum := 0.0
		for i := range cum {
			sum += 1 / math.Pow(float64(i+1), g.zipfTheta)
			cum[i] = sum
		}
		for i := range cum {
			cum[i] /= sum
		}
		cum[g.keys-1] = 1
	}
	return func() (int, int64) {
		key := rng.Int63n(g.keys) + 1
		if cum != nil {
			key = int64(sort.SearchFloat64s(cum, rng.Float64())) + 1
		}
		switch p := rng.Intn(100); {
		case p < g.readPct:
			return reqRead, key
		case p < g.readPct+g.insertPct:
			return reqInsert, key
		}
		return reqDelete, key
	}
}

// kvRequest runs one request on h, or its recovery function.
func kvRequest(t *testing.T, h *kvstore.Handle, kind int, key int64, recovering bool) {
	var err error
	switch {
	case kind == reqInsert && recovering:
		_, err = h.RecoverPut(key, goldenValue(key), kvstore.NoExpiry)
	case kind == reqInsert:
		_, err = h.Put(key, goldenValue(key), kvstore.NoExpiry)
	case kind == reqDelete && recovering:
		_, err = h.RecoverDelete(key)
	case kind == reqDelete:
		_, err = h.Delete(key)
	default:
		if v, ok := h.Get(key); ok && v != goldenValue(key) {
			err = fmt.Errorf("get %d read %#x", key, v)
		}
	}
	if err != nil {
		t.Fatalf("request %d on key %d: %v", kind, key, err)
	}
}

// crashed runs body and reports whether an armed crash parked it.
func crashed(body func()) (parked bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != pmem.ErrCrashed {
				panic(r)
			}
			parked = true
		}
	}()
	body()
	return false
}

// runFrozenWorkload runs g once and returns its counts and the closing
// clean restart's recovery stats.
func runFrozenWorkload(t *testing.T, g frozenGeometry) (workloadCounts, kvstore.RecoveryStats) {
	c := workloadCounts{name: g.name}
	pool := pmem.New(pmem.Config{Mode: g.mode, CapacityWords: frozenPoolWords, MaxThreads: frozenMaxThreads})
	rng := rand.New(rand.NewSource(countGoldenSeed))
	preload := preloadKeys(Workload{KeyRange: g.keys, Preload: int(g.keys / 2)}, rng)
	next := requestStream(g, rng)

	if g.kv.Shards == 0 {
		l := rlist.New(pool, frozenMaxThreads, 0)
		boot := l.Handle(pool.NewThread(0))
		for _, k := range preload {
			boot.Insert(k)
		}
		base, words := pool.Snapshot(), pool.AllocatedWords()
		h := l.Handle(pool.NewThread(1))
		for i := 0; i < countGoldenOps; i++ {
			switch kind, key := next(); kind {
			case reqInsert:
				h.Insert(key)
			case reqDelete:
				h.Delete(key)
			default:
				h.Find(key)
			}
		}
		end := pool.Snapshot()
		st := end.Sub(base)
		c.pwbs, c.syncs = executedPWBs(g.mode, st), st.PSyncs+st.PFences
		c.words = uint64(pool.AllocatedWords() - words)
		if _, err := rlist.Attach(pool, 0); err != nil {
			t.Fatal(err)
		}
		st = pool.Snapshot().Sub(end)
		clean := kvstore.RecoveryStats{PWBs: st.PWBs, PSyncs: st.PSyncs}
		c.addRecovery(clean)
		return c, clean
	}

	s, err := kvstore.New(pool, g.kv)
	if err != nil {
		t.Fatal(err)
	}
	boot := s.Handle(pool.NewThread(0))
	for _, k := range preload {
		kvRequest(t, boot, reqInsert, k, false)
	}
	boot.Flush()

	// Crash points come from their own stream, so the requests do not
	// depend on the crash count.
	crng := rand.New(rand.NewSource(threadSeed(countGoldenSeed, 1)))
	policy := pmem.CrashPolicy{Rng: rand.New(rand.NewSource(countGoldenSeed)), CommitProb: 0.5, EvictProb: 0.1}
	armed := 0

	// Counters die with their thread contexts at Pool.Recover, so the
	// measured phase is summed segment by segment.
	base, words := pool.Snapshot(), pool.AllocatedWords()
	segment := func() {
		st := pool.Snapshot().Sub(base)
		c.pwbs += executedPWBs(g.mode, st)
		c.syncs += st.PSyncs + st.PFences
		base = pmem.Stats{}
	}
	h := s.Handle(pool.NewThread(1))
	for i := 0; i < countGoldenOps; i++ {
		if armed < g.crashes && i == (armed+1)*countGoldenOps/(g.crashes+1) {
			pool.SetCrashAfter(crng.Int63n(crashReach) + 1)
			armed++
		}
		kind, key := next()
		// Like the benchmark, only a crash round runs each request's
		// invocation step; a crash before it completes re-runs the request.
		invoked := g.crashes == 0
		if !crashed(func() {
			if !invoked {
				h.Invoke()
				invoked = true
			}
			kvRequest(t, h, kind, key, false)
		}) {
			continue
		}
		segment()
		c.crashN++
		pool.Crash(policy)
		pool.Recover()
		if s, err = kvstore.Recover(pool, 0); err != nil {
			t.Fatalf("recover after crash %d: %v", c.crashN, err)
		}
		c.addRecovery(s.LastRecovery())
		h = s.Handle(pool.NewThread(1))
		if invoked {
			kvRequest(t, h, kind, key, true)
		} else {
			h.Invoke()
			kvRequest(t, h, kind, key, false)
		}
	}
	pool.SetCrashAfter(0)
	h.Flush()
	segment()
	c.words = uint64(pool.AllocatedWords() - words)

	if s, err = kvstore.Recover(pool, 0); err != nil {
		t.Fatalf("clean restart: %v", err)
	}
	clean := s.LastRecovery()
	c.addRecovery(clean)
	audit := pool.NewThread(2)
	if err := s.CheckInvariants(audit, true); err != nil {
		t.Fatal(err)
	}
	if err := s.AuditPostRecovery(audit); err != nil {
		t.Fatal(err)
	}
	return c, clean
}

// TestFrozenWorkloadCountsGolden pins the exact persistence counts of the
// frozen benchmark's four workloads at smoke scale, run by one client so
// that every count is deterministic: measured-phase executed pwbs,
// psync+pfence and allocated words, and what recovery repaired and
// flushed. A change that moves a row changes what the benchmark's count
// metrics (pwbs_executed_per_op, psyncs_per_op, pool_words_per_op) and its
// crash repairs read. On a failure the test prints the table as measured,
// ready to paste.
func TestFrozenWorkloadCountsGolden(t *testing.T) {
	golden := []workloadCounts{
		// name, pwbs, syncs, words, crashes, recSlots, recLeaks, recPWBs, recPSyncs
		{"kv-read-heavy", 13929, 8216, 16496, 0, 0, 0, 0, 64},
		{"kv-update-heavy", 120136, 71548, 138316, 0, 0, 0, 0, 16},
		{"list-update-heavy", 73174, 35045, 107224, 0, 0, 0, 0, 0},
		{"kv-crash-recover", 69496, 41495, 90527, 8, 3, 3704, 1155, 579},
	}
	var rows []string
	defer logRows(t, &rows)
	for i, g := range frozenGeometries {
		got, clean := runFrozenWorkload(t, g)
		rows = append(rows, got.row())
		if got != golden[i] {
			t.Errorf("%s: got %+v, golden %+v", g.name, got, golden[i])
		}
		if g.crashes > 0 && got.recSlots+got.recLeaks+got.recPWBs == 0 {
			t.Errorf("%s: the crashes forced no repair; choose other crash points", g.name)
		}
		if got.crashN != g.crashes {
			t.Errorf("%s: %d crashes fired, %d armed", g.name, got.crashN, g.crashes)
		}
		// A quiescent image has nothing to repair: no slot to reconcile,
		// no leaked block, no repair write-back, and one psync per shard.
		want := kvstore.RecoveryStats{Shards: g.kv.Shards, PSyncs: uint64(g.kv.Shards)}
		if clean != want {
			t.Errorf("%s: clean restart %+v, want %+v", g.name, clean, want)
		}
	}
}
