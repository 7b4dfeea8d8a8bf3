package main

import (
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/kvstore"
	"repro/internal/pmem"
)

// opKind is the class of a request. The three classes map onto every
// structure in the stack: Get/Put/Delete on the kvstore, Find/Insert/Delete
// on the list and the hash map.
type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// op packs one request as key<<2 | kind, so a two-million-op stream is
// 16 MiB rather than 32.
type op uint64

func mkOp(k opKind, key int64) op { return op(uint64(key)<<2 | uint64(k)) }
func (o op) kind() opKind         { return opKind(o & 3) }
func (o op) key() int64           { return int64(o >> 2) }

// structure names what the clients call into.
type structure int

const (
	onKVStore structure = iota
	onList
)

// workload is one fixed traffic shape. Everything that shapes load is here
// or derived from -seed; nothing depends on the clock.
type workload struct {
	name string

	structure structure
	mode      pmem.Mode
	kv        kvstore.Config // geometry when structure == onKVStore

	keys      int64   // key universe [1, keys]; half of it is preloaded
	zipfTheta float64 // 0 = uniform
	readPct   int
	insertPct int // the rest deletes

	opsPerRound int // over all clients
	crashes     int // per round; ModeStrict only
	poolWords   int
}

// maxThreads bounds the thread ids of every pool and structure the
// benchmark builds: boot thread 0, the clients, an audit thread, and the
// recovery engine's workers.
const maxThreads = 8

// The paper's list geometry (Fig. 4a): keys in [1, 500], half present.
const listKeys = 500

// workloads is the normative table; later issues cite these names.
// Geometry rule for the stores: slots per shard = 4x the keys a shard can
// hold (deletes leave tombstones and a probe chain only ends at a
// never-used slot), buckets so that about two live keys share one, value
// blocks for every key of the shard.
var workloads = []workload{
	{
		name: "kv-read-heavy",
		// The serving case: shard lock, rhash Find, slot probe; rmm nearly
		// idle. Zipfian keys collide on shards and the working set exceeds the
		// CPU caches, so lock and line contention and the index read path
		// dominate.
		structure: onKVStore, mode: pmem.ModeFast,
		kv: kvstore.Config{Shards: 64, Buckets: 256, SlotsPerShard: 4096,
			MaxThreads: maxThreads, ChunkBlocks: 256, MaxChunks: 8},
		keys: 65536, zipfTheta: 0.99, readPct: 90, insertPct: 5,
		opsPerRound: 1_000_000, poolWords: 12 << 20,
	},
	{
		name: "kv-update-heavy",
		// Same layers used the other way: every op runs the multi-stage
		// persist protocol, rmm Alloc/Free on every update, tombstones churn.
		// A Get win paid for by Put, or an rmm change, shows here and not on
		// kv-read-heavy.
		structure: onKVStore, mode: pmem.ModeFast,
		kv: kvstore.Config{Shards: 16, Buckets: 64, SlotsPerShard: 1024,
			MaxThreads: maxThreads, ChunkBlocks: 64, MaxChunks: 8},
		keys: 4096, readPct: 10, insertPct: 45,
		opsPerRound: 500_000, poolWords: 8 << 20,
	},
	{
		name: "list-update-heavy",
		// The paper's Fig. 4a point: cost is tracking plus a ~125-node
		// traversal on one contended rlist. kvstore, rhash and rmm are
		// bypassed, so their changes must read no move here while pmem and
		// tracking changes show here and on kv-*.
		structure: onList, mode: pmem.ModeFast,
		keys: listKeys, readPct: 30, insertPct: 35,
		opsPerRound: 1_000_000, poolWords: 14 << 20,
	},
	{
		name: "kv-crash-recover",
		// The only workload that crashes: ModeStrict capture, Pool.Recover,
		// whole-store kvstore.Recover with rmm.RecoverGC, per-thread Recover*,
		// and the exactly-once audit. Detectability failures surface here.
		structure: onKVStore, mode: pmem.ModeStrict,
		kv: kvstore.Config{Shards: 64, Buckets: 128, SlotsPerShard: 2048,
			MaxThreads: maxThreads, ChunkBlocks: 128, MaxChunks: 8},
		keys: 32768, readPct: 50, insertPct: 25,
		opsPerRound: 100_000, crashes: 20, poolWords: 4 << 20,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smoke shrinks a workload to seconds-not-minutes size for go test: the
// same geometry and mix, ~20k ops and 2 crashes per round.
func (w workload) smoke() workload {
	w.opsPerRound = 20_000
	if w.crashes > 0 {
		w.crashes = 2
	}
	if w.poolWords > 2<<20 {
		w.poolWords = 2 << 20
	}
	return w
}

// rng is a splitmix64 sequence: the benchmark's only source of randomness,
// pinned here so streams do not depend on a library's generator.
type rng struct{ x uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{x: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e9b5}
}

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ z>>30) * 0xbf58476d1ce4e9b5
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }
func (r *rng) float() float64     { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks with probability proportional to 1/rank^theta by exact
// inverse-CDF lookup (the YCSB closed form over-samples the ranks just past
// its head at theta near 1, and math/rand's Zipf cannot express theta < 1).
type zipf struct{ cum []float64 }

func newZipf(n int64, theta float64) *zipf {
	cum := make([]float64, n)
	sum := 0.0
	for i := range cum {
		sum += 1 / math.Pow(float64(i+1), theta)
		cum[i] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	cum[n-1] = 1
	return &zipf{cum: cum}
}

func (z *zipf) draw(r *rng) int64 {
	return int64(sort.SearchFloat64s(z.cum, r.float())) + 1
}

// streams is everything a round feeds the program under test: the keys to
// preload, each client's requests, and where the crashes fall.
type streams struct {
	preload   []int64
	perClient [][]op
	// crashAt[i] is the count of completed ops (over all clients) at which
	// crash i is armed; crashAfter[i] is how many further pool accesses
	// run before it fires. Anchoring crashes to ops rather than to a raw
	// access count keeps their number fixed when a later change alters how
	// many accesses an op makes.
	crashAt    []int
	crashAfter []int64
}

// generate builds the streams of w for seed, off the clock.
func generate(w workload, seed int64, clients int) *streams {
	s := &streams{}

	// Preload: a seeded distinct half of the universe (partial Fisher-Yates).
	r := newRNG(seed, 0)
	all := make([]int64, w.keys)
	for i := range all {
		all[i] = int64(i) + 1
	}
	half := int(w.keys / 2)
	for i := 0; i < half; i++ {
		j := i + int(r.intn(int64(len(all)-i)))
		all[i], all[j] = all[j], all[i]
	}
	s.preload = all[:half]

	var z *zipf
	if w.zipfTheta > 0 {
		z = newZipf(w.keys, w.zipfTheta)
	}
	per := w.opsPerRound / clients
	for c := 0; c < clients; c++ {
		r := newRNG(seed, uint64(c)+1)
		ops := make([]op, per)
		for i := range ops {
			var key int64
			if z != nil {
				key = z.draw(r)
			} else {
				key = r.intn(w.keys) + 1
			}
			kind := opDelete
			if p := int(r.intn(100)); p < w.readPct {
				kind = opRead
			} else if p < w.readPct+w.insertPct {
				kind = opInsert
			}
			ops[i] = mkOp(kind, key)
		}
		s.perClient = append(s.perClient, ops)
	}

	// Crash i is armed near op (i+1)/(crashes+1) of the round, jittered by
	// a quarter of the spacing, and fires 1..500 accesses later.
	r = newRNG(seed, 1<<32)
	total := per * clients
	gap := total / (w.crashes + 1)
	for i := 0; i < w.crashes; i++ {
		s.crashAt = append(s.crashAt, (i+1)*gap+int(r.intn(int64(gap/2)+1))-gap/4)
		s.crashAfter = append(s.crashAfter, r.intn(500)+1)
	}
	return s
}

// hash fingerprints the streams (FNV-1a), for the determinism test and the
// report.
func (s *streams) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, k := range s.preload {
		put(uint64(k))
	}
	for _, ops := range s.perClient {
		for _, o := range ops {
			put(uint64(o))
		}
	}
	for i := range s.crashAt {
		put(uint64(s.crashAt[i]))
		put(uint64(s.crashAfter[i]))
	}
	return h.Sum64()
}

// single flattens the client streams round-robin into the one stream a
// single-client ladder stage replays, keeping the first n requests. With
// fold > 0 keys are folded into [1, fold] and the preload is cut to the
// first fold/2 distinct folded keys, so a layer with its own geometry (the
// paper's 500-key list) sees this workload's mix at that geometry.
func (s *streams) single(n int, fold int64) *streams {
	foldKey := func(k int64) int64 {
		if fold > 0 {
			return (k-1)%fold + 1
		}
		return k
	}
	clients := len(s.perClient)
	if most := clients * len(s.perClient[0]); n > most {
		n = most
	}
	ops := make([]op, n)
	for i := range ops {
		o := s.perClient[i%clients][i/clients]
		ops[i] = mkOp(o.kind(), foldKey(o.key()))
	}
	out := &streams{perClient: [][]op{ops}}
	seen := map[int64]bool{}
	for _, k := range s.preload {
		k = foldKey(k)
		if seen[k] || (fold > 0 && int64(len(out.preload)) >= fold/2) {
			continue
		}
		seen[k] = true
		out.preload = append(out.preload, k)
	}
	return out
}
