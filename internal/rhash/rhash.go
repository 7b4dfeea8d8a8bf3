// Package rhash composes the Tracking approach of Attiya et al. (PPoPP
// 2022) into a detectably recoverable hash set: a fixed array of buckets,
// each an embedded recoverable sorted list (Algorithms 3-4), all sharing a
// single Tracking engine and per-thread recovery data. Recoverable hash
// maps are among the structures the paper cites as natural Tracking targets
// (Section 7 discusses Dash and the durable sets of Zuriel et al.); this
// package shows the transformation composes without any new recovery code:
// a thread executes one recoverable operation at a time, so the per-thread
// CP/RD pair covers every bucket.
package rhash

import (
	"fmt"

	"repro/internal/pmem"
	"repro/internal/recovery"
	"repro/internal/rlist"
	"repro/internal/tracking"
)

// Header word offsets.
const (
	hdrBuckets  = 0
	hdrNBuckets = pmem.WordSize
	hdrTable    = 2 * pmem.WordSize
	hdrThreads  = 3 * pmem.WordSize
	hdrLen      = 4
)

// Map is a detectably recoverable hash set of int64 keys.
type Map struct {
	pool     *pmem.Pool
	eng      *tracking.Engine
	buckets  []rlist.List // one backing array: attach allocates once, not per bucket
	nBuckets uint64
	table    pmem.Addr
	header   pmem.Addr
}

// New creates a map with nBuckets buckets (rounded up to a power of two)
// for up to maxThreads threads, recording its header in rootSlot. The root
// slot is validated before any building starts, so an out-of-range slot
// fails immediately instead of panicking after the whole table has been
// constructed.
func New(pool *pmem.Pool, nBuckets, maxThreads, rootSlot int) *Map {
	root, err := pool.RootSlotChecked(rootSlot)
	if err != nil {
		panic("rhash: " + err.Error())
	}
	eng := tracking.New(pool, maxThreads, "rhash")
	boot := pool.NewThread(0)
	m := NewEmbedded(eng, boot, nBuckets)
	header := boot.AllocLocal(hdrLen)
	boot.Store(header+hdrBuckets, uint64(m.table))
	boot.Store(header+hdrNBuckets, m.nBuckets)
	boot.Store(header+hdrTable, uint64(eng.TableAddr()))
	boot.Store(header+hdrThreads, uint64(maxThreads))
	m.header = header

	boot.PWBRange(pmem.NoSite, header, hdrLen)
	boot.PFence()
	boot.Store(root, uint64(header))
	boot.PWB(pmem.NoSite, root)
	boot.PSync()
	return m
}

// NewEmbedded builds a map that shares an existing Tracking engine, for
// services composing several maps over one engine (a thread executes one
// recoverable operation at a time, so its CP/RD pair covers every map, the
// same argument that lets one engine cover every bucket). The bucket table
// is built and persisted; durable publication of the table address (see
// TableAddr) and bucket count is the caller's responsibility — the kvstore
// shard directory records both per shard.
func NewEmbedded(eng *tracking.Engine, boot *pmem.ThreadCtx, nBuckets int) *Map {
	n := 1
	for n < nBuckets {
		n *= 2
	}
	// Line-align the bucket table: its words are read on every operation
	// and must not share a line with a neighbouring allocation's hot data.
	table := boot.AllocLines((n + pmem.LineWords - 1) / pmem.LineWords)
	m := &Map{pool: boot.Pool(), eng: eng, nBuckets: uint64(n), table: table}
	m.buckets = make([]rlist.List, n)
	for i := range m.buckets {
		m.buckets[i] = *rlist.NewEmbedded(eng, boot)
		boot.Store(table+pmem.Addr(i*pmem.WordSize), uint64(m.buckets[i].HeadAddr()))
	}
	boot.PWBRange(pmem.NoSite, table, n)
	boot.PFence()
	return m
}

// TableAddr returns the durable address of the bucket table, for callers
// of NewEmbedded that record it in their own durable directory.
func (m *Map) TableAddr() pmem.Addr { return m.table }

// NBuckets returns the bucket count (a power of two).
func (m *Map) NBuckets() int { return int(m.nBuckets) }

// AttachEmbedded reconstructs a NewEmbedded map from its persisted bucket
// table, on an engine the caller has already attached, inline on the
// caller's thread context (shard-parallel recovery attaches many embedded
// maps concurrently, one worker context each). It validates the table
// region and every bucket head before trusting them, so a garbage
// directory entry yields a descriptive error rather than an out-of-bounds
// panic.
func AttachEmbedded(eng *tracking.Engine, boot *pmem.ThreadCtx, table pmem.Addr, nBuckets int) (*Map, error) {
	pool := boot.Pool()
	if nBuckets <= 0 || nBuckets&(nBuckets-1) != 0 {
		return nil, fmt.Errorf("rhash: bucket count %d is not a positive power of two", nBuckets)
	}
	if !pool.ValidWords(table, nBuckets) {
		return nil, fmt.Errorf("rhash: bucket table %#x (%d buckets) outside pool", uint64(table), nBuckets)
	}
	m := &Map{pool: pool, eng: eng, nBuckets: uint64(nBuckets), table: table}
	if err := m.attachBuckets(recovery.Inline(boot)); err != nil {
		return nil, err
	}
	return m, nil
}

// attachBuckets is the one bucket loop of every attach path: loop reads
// each bucket's head word from the table, validates it and attaches the
// bucket's list; the buckets fill disjoint slots of m.buckets.
func (m *Map) attachBuckets(loop recovery.Loop) error {
	m.buckets = make([]rlist.List, m.nBuckets)
	return loop(len(m.buckets), func(ctx *pmem.ThreadCtx, i int) error {
		head := pmem.Addr(ctx.Load(m.table + pmem.Addr(i*pmem.WordSize)))
		if !m.pool.ValidWords(head, 1) {
			return fmt.Errorf("rhash: bucket %d head %#x invalid", i, uint64(head))
		}
		m.buckets[i] = *rlist.AttachEmbedded(m.eng, m.pool, head)
		return nil
	}, nil)
}

// attach reconstructs a Map from the header in rootSlot, reading the
// header on boot and attaching the buckets with loop. Every address read
// from durable words is bounds-checked before use: a fresh pool's Null
// slot, a slot holding a non-pointer value, and a header whose fields do
// not parse all yield descriptive errors instead of panics.
func attach(pool *pmem.Pool, rootSlot int, boot *pmem.ThreadCtx, loop recovery.Loop) (*Map, error) {
	root, err := pool.RootSlotChecked(rootSlot)
	if err != nil {
		return nil, fmt.Errorf("rhash: %w", err)
	}
	header := pmem.Addr(boot.Load(root))
	if header == pmem.Null {
		return nil, fmt.Errorf("rhash: root slot %d holds no map", rootSlot)
	}
	if !pool.ValidWords(header, hdrLen) {
		return nil, fmt.Errorf("rhash: root slot %d holds %#x, not a header address",
			rootSlot, uint64(header))
	}
	table := pmem.Addr(boot.Load(header + hdrBuckets))
	n := int(boot.Load(header + hdrNBuckets))
	engTable := pmem.Addr(boot.Load(header + hdrTable))
	threads := int(boot.Load(header + hdrThreads))
	if n <= 0 || n&(n-1) != 0 || !pool.ValidWords(table, n) ||
		!pool.ValidWords(engTable, 1) || threads <= 0 {
		return nil, fmt.Errorf("rhash: corrupt header at %#x", uint64(header))
	}
	eng := tracking.Attach(pool, engTable, threads, "rhash")
	m := &Map{pool: pool, eng: eng, nBuckets: uint64(n), table: table, header: header}
	if err := m.attachBuckets(loop); err != nil {
		return nil, err
	}
	return m, nil
}

// Attach reconstructs a Map from the header in rootSlot.
func Attach(pool *pmem.Pool, rootSlot int) (*Map, error) {
	boot := pool.NewThread(0)
	return attach(pool, rootSlot, boot, recovery.Inline(boot))
}

// AttachParallel is Attach with the bucket loop dealt across the engine's
// workers (PhaseAttach), each reading its buckets' head words with its own
// thread context.
func AttachParallel(pool *pmem.Pool, rootSlot int, eng *recovery.Engine) (*Map, error) {
	return attach(pool, rootSlot, pool.NewThread(eng.BaseTID()), eng.Loop(pool, recovery.PhaseAttach))
}

// Handle binds a thread context to the map; one per simulated thread. Every
// bucket handle shares the thread's CP/RD recovery data. Bucket handles are
// built lazily on first touch of each bucket: eagerly materializing all of
// them cost O(threads × buckets) memory up front, which dominated handle
// creation for large tables.
type Handle struct {
	m       *Map
	th      *tracking.Thread
	handles []*rlist.Handle // lazily grown; nil until the first bucket touch
}

// Handle creates the per-thread handle for ctx. It performs no per-bucket
// work or allocation; bucket handles materialize on first touch.
func (m *Map) Handle(ctx *pmem.ThreadCtx) *Handle {
	return &Handle{m: m, th: m.eng.Thread(ctx)}
}

// HandleWith creates a per-thread handle over an existing Tracking thread,
// for services whose threads span several embedded maps on one engine (the
// kvstore's shards); the thread's CP/RD recovery data covers them all.
func (m *Map) HandleWith(th *tracking.Thread) *Handle {
	return &Handle{m: m, th: th}
}

// Invoke performs the system-side invocation step; see tracking.Invoke.
func (h *Handle) Invoke() { h.th.Invoke() }

// hash mixes the key (splitmix64 finalizer) into a bucket index.
func (m *Map) hash(key int64) uint64 {
	x := uint64(key)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x & (m.nBuckets - 1)
}

func (h *Handle) bucket(key int64) *rlist.Handle {
	i := h.m.hash(key)
	if h.handles == nil {
		h.handles = make([]*rlist.Handle, len(h.m.buckets))
	}
	b := h.handles[i]
	if b == nil {
		b = h.m.buckets[i].HandleWith(h.th)
		h.handles[i] = b
	}
	return b
}

// Insert adds key and reports whether it was absent.
func (h *Handle) Insert(key int64) bool { return h.bucket(key).Insert(key) }

// Delete removes key and reports whether it was present.
func (h *Handle) Delete(key int64) bool { return h.bucket(key).Delete(key) }

// Find reports membership.
func (h *Handle) Find(key int64) bool { return h.bucket(key).Find(key) }

// RecoverInsert is Insert's recovery function; the system calls it with the
// original argument, which routes it to the same bucket.
func (h *Handle) RecoverInsert(key int64) bool { return h.bucket(key).RecoverInsert(key) }

// RecoverDelete is Delete's recovery function.
func (h *Handle) RecoverDelete(key int64) bool { return h.bucket(key).RecoverDelete(key) }

// RecoverFind is Find's recovery function.
func (h *Handle) RecoverFind(key int64) bool { return h.bucket(key).RecoverFind(key) }

// Settled settles the thread's interrupted operation without re-executing
// it and reports its response; ok is false when it must be re-executed
// (see rlist.Handle.Settled). The thread's recovery data covers every
// bucket, so no key is needed.
func (h *Handle) Settled() (result, ok bool) {
	_, res, ok := h.th.Recover()
	return res == rlist.ResultTrue, ok
}

// keyLanes is how many bucket chains AppendKeys walks at once.
const keyLanes = 8

// AppendKeys appends every key to out and returns the extended slice. It
// walks keyLanes bucket chains round-robin, one node of each per turn, so
// their independent pointer chases overlap instead of running back to
// back; a lane whose chain ends takes the next bucket. Keys therefore come
// out interleaved across buckets, in an order fixed by the image. Like
// Keys it is not linearizable with concurrent updates.
func (m *Map) AppendKeys(ctx *pmem.ThreadCtx, out []int64) []int64 {
	var lanes [keyLanes]rlist.Cursor
	next, live := 0, 0
	for ; live < keyLanes && next < len(m.buckets); live, next = live+1, next+1 {
		lanes[live] = m.buckets[next].Cursor(ctx)
	}
	for live > 0 {
		for i := 0; i < live; {
			if k, ok := lanes[i].Next(ctx); ok {
				out = append(out, k)
				i++
			} else if next < len(m.buckets) {
				lanes[i] = m.buckets[next].Cursor(ctx)
				next++
			} else {
				live--
				lanes[i] = lanes[live]
			}
		}
	}
	return out
}

// Keys returns all keys (unordered across buckets; diagnostic).
func (m *Map) Keys(ctx *pmem.ThreadCtx) []int64 { return m.AppendKeys(ctx, nil) }

// CheckInvariants verifies every bucket's structure and that keys hash to
// their buckets.
func (m *Map) CheckInvariants(ctx *pmem.ThreadCtx, quiescent bool) error {
	return m.check(recovery.Inline(ctx), quiescent)
}

// CheckInvariantsParallel is CheckInvariants with the buckets dealt across
// the engine's workers (PhaseVerify). The frozen end-to-end benchmark is
// its caller.
func (m *Map) CheckInvariantsParallel(eng *recovery.Engine, quiescent bool) error {
	return m.check(eng.Loop(m.pool, recovery.PhaseVerify), quiescent)
}

// check is CheckInvariants and CheckInvariantsParallel: buckets are
// disjoint lists, so loop checks each one independently.
func (m *Map) check(loop recovery.Loop, quiescent bool) error {
	return loop(len(m.buckets), func(ctx *pmem.ThreadCtx, i int) error {
		b := &m.buckets[i]
		if err := b.CheckInvariants(ctx, quiescent); err != nil {
			return fmt.Errorf("rhash: bucket %d: %w", i, err)
		}
		for _, k := range b.Keys(ctx) {
			if m.hash(k) != uint64(i) {
				return fmt.Errorf("rhash: key %d in bucket %d, hashes to %d", k, i, m.hash(k))
			}
		}
		return nil
	}, nil)
}
