// Package redolog implements a compact stand-in for the Redo family of
// persistent universal constructions (Correia, Felber, Ramalhete, EuroSys
// 2020 — RedoOpt being the best performer), which the paper compares
// against in Section 5, instantiated for a sorted-set object.
//
// The construction is a persistent redo log of operations. A thread
// announces its operation in a per-thread persistent slot, then combines:
// under a combiner lock it appends every announced-but-unapplied operation
// to the log — computing each response deterministically against a volatile
// replica of the set — persists the entries, and finally bumps the
// persistent log tail. The log is the single source of truth: recovery
// replays it from the beginning to rebuild the replica, and each thread's
// last response is recomputed during replay, which makes the construction
// detectable.
//
// The log is a ring, bounded by periodic checkpoints: the combiner
// serializes the replica and the per-thread response table into one of two
// alternating persistent buffers and atomically publishes it with a single
// word naming the buffer and the log prefix it covers. Recovery loads the
// latest checkpoint and replays only the suffix. One simplification remains
// relative to the published system, preserving the behaviour the evaluation
// exercises (a centralized persisted log whose sequential append dominates
// scaling): the combiner is a mutex rather than wait-free helping.
package redolog

import (
	"fmt"
	"sync"

	"repro/internal/pmem"
)

// Operation codes.
const (
	OpInsert uint64 = 1
	OpDelete uint64 = 2
	OpFind   uint64 = 3
)

// Log entry word offsets: header packs (tid<<32 | op<<1 | result), key.
const (
	entHeader = 0
	entKey    = pmem.WordSize
	entSeq    = 2 * pmem.WordSize
	entLen    = 3
)

// Announce slot word offsets (one line per thread): seq, op, key.
const (
	annSeq = 0
	annOp  = pmem.WordSize
	annKey = 2 * pmem.WordSize
)

// Header word offsets.
const (
	hdrLog     = 0
	hdrTail    = pmem.WordSize
	hdrAnn     = 2 * pmem.WordSize
	hdrInvoke  = 3 * pmem.WordSize
	hdrCap     = 4 * pmem.WordSize
	hdrThreads = 5 * pmem.WordSize
	hdrCkpt    = 6 * pmem.WordSize // checkpoint switch word address
	hdrBufA    = 7 * pmem.WordSize
	hdrBufB    = 8 * pmem.WordSize
	hdrLen     = 9
)

// The checkpoint switch word packs (buffer index << 62) | covered tail.
const ckptBufBit = 62

// Checkpoint buffer layout: word 0 = number of keys, words 1.. = keys,
// then 2 words (seq, result) per thread.
func ckptBufWords(capacity, maxThreads int) int { return 1 + capacity + 2*maxThreads }

type sites struct {
	announce pmem.Site
	entry    pmem.Site
	tail     pmem.Site
	seq      pmem.Site
	ckpt     pmem.Site
}

func registerSites(pool *pmem.Pool) sites {
	return sites{
		announce: pool.RegisterSite("redo/pwb-announce"),
		entry:    pool.RegisterSite("redo/pwb-log-entry"),
		tail:     pool.RegisterSite("redo/pwb-tail"),
		seq:      pool.RegisterSite("redo/pwb-invokeseq"),
		ckpt:     pool.RegisterSite("redo/pwb-checkpoint"),
	}
}

// Set is a persistent, detectable sorted-set built on a redo log.
type Set struct {
	logBase    pmem.Addr
	tailAddr   pmem.Addr
	annBase    pmem.Addr
	invokeBase pmem.Addr
	capacity   int // max entries
	maxThreads int
	s          sites

	ckptAddr   pmem.Addr // checkpoint switch word
	bufA, bufB pmem.Addr // alternating checkpoint buffers

	mu      sync.Mutex // combiner lock
	replica *seqList   // volatile replica of the sequential object
	applied []uint64   // volatile: per-thread last applied announce seq
	results []uint64   // volatile: per-thread last result (rebuilt on attach)
	lastSeq []uint64   // volatile: per-thread seq of results entry
	covered uint64     // volatile mirror of the checkpointed log prefix
}

// New creates a Set with room for capacity log entries and records its
// header in rootSlot.
func New(pool *pmem.Pool, capacity, maxThreads, rootSlot int) *Set {
	boot := pool.NewThread(0)
	logBase := boot.AllocLines((capacity*entLen + pmem.LineWords - 1) / pmem.LineWords)
	tailLine := boot.AllocLines(1)
	annBase := boot.AllocLines(maxThreads)
	invokeBase := boot.AllocLines(maxThreads)
	ckptLine := boot.AllocLines(1)
	bw := ckptBufWords(capacity, maxThreads)
	bufA := boot.AllocLines((bw + pmem.LineWords - 1) / pmem.LineWords)
	bufB := boot.AllocLines((bw + pmem.LineWords - 1) / pmem.LineWords)

	header := boot.AllocLocal(hdrLen)
	boot.Store(header+hdrLog, uint64(logBase))
	boot.Store(header+hdrTail, uint64(tailLine))
	boot.Store(header+hdrAnn, uint64(annBase))
	boot.Store(header+hdrInvoke, uint64(invokeBase))
	boot.Store(header+hdrCap, uint64(capacity))
	boot.Store(header+hdrThreads, uint64(maxThreads))
	boot.Store(header+hdrCkpt, uint64(ckptLine))
	boot.Store(header+hdrBufA, uint64(bufA))
	boot.Store(header+hdrBufB, uint64(bufB))
	boot.PWBRange(pmem.NoSite, header, hdrLen)
	boot.PFence()
	root := pool.RootSlot(rootSlot)
	boot.Store(root, uint64(header))
	boot.PWB(pmem.NoSite, root)
	boot.PSync()

	return &Set{
		logBase: logBase, tailAddr: tailLine, annBase: annBase,
		invokeBase: invokeBase, capacity: capacity, maxThreads: maxThreads,
		ckptAddr: ckptLine, bufA: bufA, bufB: bufB,
		s:       registerSites(pool),
		replica: newSeqList(),
		applied: make([]uint64, maxThreads),
		results: make([]uint64, maxThreads),
		lastSeq: make([]uint64, maxThreads),
	}
}

// Attach reconstructs a Set from rootSlot and replays the log to rebuild
// the volatile replica and per-thread responses.
func Attach(pool *pmem.Pool, rootSlot int) (*Set, error) {
	boot := pool.NewThread(0)
	header := pmem.Addr(boot.Load(pool.RootSlot(rootSlot)))
	if header == pmem.Null {
		return nil, fmt.Errorf("redolog: root slot %d holds no set", rootSlot)
	}
	s := &Set{
		logBase:    pmem.Addr(boot.Load(header + hdrLog)),
		tailAddr:   pmem.Addr(boot.Load(header + hdrTail)),
		annBase:    pmem.Addr(boot.Load(header + hdrAnn)),
		invokeBase: pmem.Addr(boot.Load(header + hdrInvoke)),
		capacity:   int(boot.Load(header + hdrCap)),
		maxThreads: int(boot.Load(header + hdrThreads)),
		s:          registerSites(pool),
		replica:    newSeqList(),
	}
	if s.logBase == pmem.Null || s.capacity <= 0 || s.maxThreads <= 0 {
		return nil, fmt.Errorf("redolog: corrupt header at %#x", uint64(header))
	}
	s.ckptAddr = pmem.Addr(boot.Load(header + hdrCkpt))
	s.bufA = pmem.Addr(boot.Load(header + hdrBufA))
	s.bufB = pmem.Addr(boot.Load(header + hdrBufB))
	s.applied = make([]uint64, s.maxThreads)
	s.results = make([]uint64, s.maxThreads)
	s.lastSeq = make([]uint64, s.maxThreads)

	// Load the latest checkpoint, if any, then replay the suffix: every
	// entry below the durable tail is fully persisted.
	sw := boot.Load(s.ckptAddr)
	covered := sw &^ (uint64(3) << ckptBufBit)
	if sw != 0 {
		buf := s.bufA
		if sw>>ckptBufBit&1 == 1 {
			buf = s.bufB
		}
		nKeys := boot.Load(buf)
		for i := uint64(0); i < nKeys; i++ {
			s.replica.insert(int64(boot.Load(buf + pmem.Addr((1+i)*pmem.WordSize))))
		}
		per := buf + pmem.Addr((1+uint64(s.capacity))*pmem.WordSize)
		for t := 0; t < s.maxThreads; t++ {
			seq := boot.Load(per + pmem.Addr(2*t*pmem.WordSize))
			res := boot.Load(per + pmem.Addr((2*t+1)*pmem.WordSize))
			s.applied[t], s.lastSeq[t], s.results[t] = seq, seq, res
		}
	}
	s.covered = covered
	tail := boot.Load(s.tailAddr)
	for i := covered; i < tail; i++ {
		s.replayEntry(boot, int(i))
	}
	return s, nil
}

// checkpoint serializes the replica and response table into the inactive
// buffer and atomically publishes it. Caller holds the combiner lock.
func (s *Set) checkpoint(c *pmem.ThreadCtx, tail uint64) {
	old := c.Load(s.ckptAddr)
	bufIdx := uint64(0)
	buf := s.bufA
	if old != 0 && old>>ckptBufBit&1 == 0 {
		bufIdx, buf = 1, s.bufB
	}
	keys := s.replica.keys()
	c.Store(buf, uint64(len(keys)))
	for i, k := range keys {
		c.Store(buf+pmem.Addr((1+i)*pmem.WordSize), uint64(k))
	}
	per := buf + pmem.Addr((1+s.capacity)*pmem.WordSize)
	for t := 0; t < s.maxThreads; t++ {
		c.Store(per+pmem.Addr(2*t*pmem.WordSize), s.lastSeq[t])
		c.Store(per+pmem.Addr((2*t+1)*pmem.WordSize), s.results[t])
	}
	c.PWBRange(s.s.ckpt, buf, 1+len(keys))
	c.PWBRange(s.s.ckpt, per, 2*s.maxThreads)
	c.PFence()
	c.Store(s.ckptAddr, bufIdx<<ckptBufBit|tail)
	c.PWB(s.s.ckpt, s.ckptAddr)
	c.PSync()
	s.covered = tail
}

// entryAddr maps a logical log index to its ring slot.
func (s *Set) entryAddr(i int) pmem.Addr {
	return s.logBase + pmem.Addr((i%s.capacity)*entLen*pmem.WordSize)
}

// replayEntry applies log entry i to the replica and records the issuing
// thread's response.
func (s *Set) replayEntry(ctx *pmem.ThreadCtx, i int) {
	e := s.entryAddr(i)
	hdr := ctx.Load(e + entHeader)
	key := int64(ctx.Load(e + entKey))
	seq := ctx.Load(e + entSeq)
	tid := int(hdr >> 32)
	op := hdr >> 1 & 0x7fffffff
	res := s.apply(op, key)
	if tid >= 0 && tid < s.maxThreads {
		s.applied[tid] = seq
		s.lastSeq[tid] = seq
		s.results[tid] = res
	}
}

// apply mutates the replica deterministically and returns the response.
func (s *Set) apply(op uint64, key int64) uint64 {
	switch op {
	case OpInsert:
		return b2u(s.replica.insert(key))
	case OpDelete:
		return b2u(s.replica.delete(key))
	default:
		return b2u(s.replica.find(key))
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Handle binds a thread context to the set.
type Handle struct {
	set *Set
	ctx *pmem.ThreadCtx
}

// Handle creates the per-thread handle for ctx.
func (s *Set) Handle(ctx *pmem.ThreadCtx) *Handle {
	return &Handle{set: s, ctx: ctx}
}

// Invoke performs the system-side invocation step and returns the new
// operation sequence number.
func (h *Handle) Invoke() uint64 {
	line := h.set.invokeBase + pmem.Addr(h.ctx.TID()*pmem.LineBytes)
	seq := h.ctx.Load(line) + 1
	h.ctx.StoreDurable(h.set.s.seq, line, seq)
	return seq
}

// run announces (seq, op, key) and combines until the operation is applied.
func (h *Handle) run(seq, op uint64, key int64) uint64 {
	s := h.set
	c := h.ctx
	tid := c.TID()
	ann := s.annBase + pmem.Addr(tid*pmem.LineBytes)
	// The sequence word is stored last: a combiner that observes the new
	// seq is guaranteed to see the matching op and key.
	c.Store(ann+annOp, op)
	c.Store(ann+annKey, uint64(key))
	c.Store(ann+annSeq, seq)
	c.PWBRange(s.s.announce, ann, 3)
	c.PSync()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.applied[tid] >= seq {
		return s.results[tid] // someone combined for us (not in the
		// mutex variant, but kept for protocol clarity)
	}
	// Combine: append every announced-but-unapplied operation.
	tail := int(c.Load(s.tailAddr))
	appended := 0
	for t := 0; t < s.maxThreads; t++ {
		a := s.annBase + pmem.Addr(t*pmem.LineBytes)
		aseq := c.Load(a + annSeq)
		if aseq == 0 || aseq <= s.applied[t] {
			continue
		}
		if uint64(tail+appended)-s.covered >= uint64(s.capacity) {
			// The ring is about to lap an uncheckpointed entry:
			// checkpoint the prefix written so far first.
			c.Store(s.tailAddr, uint64(tail+appended))
			c.PWB(s.s.tail, s.tailAddr)
			c.PSync()
			s.checkpoint(c, uint64(tail+appended))
		}
		e := s.entryAddr(tail + appended)
		aop := c.Load(a + annOp)
		akey := int64(c.Load(a + annKey))
		res := s.apply(aop, akey)
		c.Store(e+entHeader, uint64(t)<<32|aop<<1|res)
		c.Store(e+entKey, uint64(akey))
		c.Store(e+entSeq, aseq)
		c.PWBRange(s.s.entry, e, entLen)
		s.applied[t] = aseq
		s.lastSeq[t] = aseq
		s.results[t] = res
		appended++
	}
	c.PFence()
	c.Store(s.tailAddr, uint64(tail+appended))
	c.PWB(s.s.tail, s.tailAddr)
	c.PSync()
	// Opportunistic checkpoint once the uncovered suffix fills half the
	// ring, keeping recovery replay short and the ring far from lapping.
	if uint64(tail+appended)-s.covered >= uint64(s.capacity)/2 {
		s.checkpoint(c, uint64(tail+appended))
	}
	return s.results[tid]
}

// Insert adds key and reports whether it was absent.
func (h *Handle) Insert(key int64) bool {
	seq := h.Invoke()
	return h.run(seq, OpInsert, key) == 1
}

// Delete removes key and reports whether it was present.
func (h *Handle) Delete(key int64) bool {
	seq := h.Invoke()
	return h.run(seq, OpDelete, key) == 1
}

// Find reports membership (also logged: the construction treats every
// operation uniformly, which is part of its cost).
func (h *Handle) Find(key int64) bool {
	seq := h.Invoke()
	return h.run(seq, OpFind, key) == 1
}

// Recover resolves the thread's last invoked operation after a crash: if
// the log already contains it, its replayed response is returned; otherwise
// the operation had no effect and is re-run.
func (h *Handle) Recover(op uint64, key int64) bool {
	s := h.set
	c := h.ctx
	tid := c.TID()
	seq := c.Load(s.invokeBase + pmem.Addr(tid*pmem.LineBytes))
	if seq == 0 {
		return h.runOp(op, key)
	}
	s.mu.Lock()
	done := s.lastSeq[tid] == seq
	res := s.results[tid]
	s.mu.Unlock()
	if done {
		return res == 1
	}
	// Not in the log: the announcement (if any) was never combined.
	// Clear it and re-run under the same sequence number.
	return h.run(seq, op, key) == 1
}

func (h *Handle) runOp(op uint64, key int64) bool {
	switch op {
	case OpInsert:
		return h.Insert(key)
	case OpDelete:
		return h.Delete(key)
	default:
		return h.Find(key)
	}
}

// Keys returns the current keys in order (diagnostic, combiner-locked).
func (s *Set) Keys(ctx *pmem.ThreadCtx) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replica.keys()
}

// Size reports the current cardinality.
func (s *Set) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replica.size()
}

// seqList is the volatile replica: the same sequential sorted linked list
// the other implementations provide, so replayed operations pay the same
// traversal cost the published system's replica does.
type seqList struct {
	head *seqNode
	n    int
}

type seqNode struct {
	key  int64
	next *seqNode
}

func newSeqList() *seqList {
	return &seqList{head: &seqNode{key: 0, next: nil}}
}

func (l *seqList) window(key int64) (pred, curr *seqNode) {
	pred = l.head
	curr = pred.next
	for curr != nil && curr.key < key {
		pred = curr
		curr = curr.next
	}
	return pred, curr
}

func (l *seqList) insert(key int64) bool {
	pred, curr := l.window(key)
	if curr != nil && curr.key == key {
		return false
	}
	pred.next = &seqNode{key: key, next: curr}
	l.n++
	return true
}

func (l *seqList) delete(key int64) bool {
	pred, curr := l.window(key)
	if curr == nil || curr.key != key {
		return false
	}
	pred.next = curr.next
	l.n--
	return true
}

func (l *seqList) find(key int64) bool {
	_, curr := l.window(key)
	return curr != nil && curr.key == key
}

func (l *seqList) keys() []int64 {
	out := make([]int64, 0, l.n)
	for c := l.head.next; c != nil; c = c.next {
		out = append(out, c.key)
	}
	return out
}

func (l *seqList) size() int { return l.n }
