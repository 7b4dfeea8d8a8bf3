// Package rqueue applies the Tracking approach of Attiya et al. (PPoPP
// 2022) to the Michael-Scott lock-free queue, yielding a detectably
// recoverable FIFO queue. The paper derives a list, a BST and an exchanger;
// recoverable queues are the running example of much of the related work it
// discusses (Friedman et al.'s detectable queue, Sela & Petrank's durable
// queues), which makes the queue a natural fourth instantiation of the
// generic engine — built entirely from Algorithms 1-2's phases, with no
// queue-specific recovery code.
//
//   - Enqueue(v) appends a fresh node after the current last node. Its
//     AffectSet is the last node (tagged, untagged at cleanup), its
//     WriteSet the last node's next field (Null -> new node), its NewSet
//     the new node. The tail pointer is a hint, swung outside the
//     descriptor (it is not part of the linearization, exactly as in the
//     original queue).
//   - Dequeue() advances the head from the current sentinel to its
//     successor, which becomes the new sentinel; the response is the
//     successor's (immutable) value, recorded as the descriptor's pending
//     result. The old sentinel leaves the queue and stays tagged forever.
//     Dequeue on an empty queue is read-only: it persists nothing, and
//     RecoverDequeue re-executes it.
package rqueue

import (
	"fmt"

	"repro/internal/pmem"
	"repro/internal/tracking"
)

// Operation type codes.
const (
	OpEnqueue uint64 = 1
	OpDequeue uint64 = 2
)

// Empty is the dequeue response on an empty queue. Enqueued values must be
// smaller than Empty.
const Empty uint64 = 1 << 62

// ack is the (unused) response recorded for a successful enqueue.
const ack uint64 = 1

// Node word offsets: value, next, info.
const (
	offValue = 0
	offNext  = pmem.WordSize
	offInfo  = 2 * pmem.WordSize
	nodeLen  = 3
)

// Header word offsets.
const (
	hdrHeadLine = 0
	hdrTailLine = pmem.WordSize
	hdrTable    = 2 * pmem.WordSize
	hdrThreads  = 3 * pmem.WordSize
	hdrLen      = 4
)

// Queue is a detectably recoverable FIFO queue of uint64 values.
type Queue struct {
	pool     *pmem.Pool
	eng      *tracking.Engine
	headAddr pmem.Addr // word holding the current sentinel's address
	tailAddr pmem.Addr // word holding the tail hint
	header   pmem.Addr
	tailSite pmem.Site
}

// New creates an empty queue for up to maxThreads threads and records its
// header in rootSlot.
func New(pool *pmem.Pool, maxThreads, rootSlot int) *Queue {
	eng := tracking.New(pool, maxThreads, "rqueue")
	boot := pool.NewThread(0)

	sentinel := boot.AllocLocal(nodeLen)
	// head and tail each get their own line: they are the hot words.
	headLine := boot.AllocLines(1)
	tailLine := boot.AllocLines(1)
	boot.Store(headLine, uint64(sentinel))
	boot.Store(tailLine, uint64(sentinel))

	header := boot.AllocLocal(hdrLen)
	boot.Store(header+hdrHeadLine, uint64(headLine))
	boot.Store(header+hdrTailLine, uint64(tailLine))
	boot.Store(header+hdrTable, uint64(eng.TableAddr()))
	boot.Store(header+hdrThreads, uint64(maxThreads))

	boot.PWBRange(pmem.NoSite, sentinel, nodeLen)
	boot.PWB(pmem.NoSite, headLine)
	boot.PWB(pmem.NoSite, tailLine)
	boot.PWBRange(pmem.NoSite, header, hdrLen)
	boot.PFence()
	root := pool.RootSlot(rootSlot)
	boot.Store(root, uint64(header))
	boot.PWB(pmem.NoSite, root)
	boot.PSync()

	return &Queue{
		pool: pool, eng: eng, headAddr: headLine, tailAddr: tailLine,
		header: header, tailSite: pool.RegisterSite("rqueue/pwb-tail-hint"),
	}
}

// Attach reconstructs a Queue from the header in rootSlot.
func Attach(pool *pmem.Pool, rootSlot int) (*Queue, error) {
	boot := pool.NewThread(0)
	header := pmem.Addr(boot.Load(pool.RootSlot(rootSlot)))
	if header == pmem.Null {
		return nil, fmt.Errorf("rqueue: root slot %d holds no queue", rootSlot)
	}
	headLine := pmem.Addr(boot.Load(header + hdrHeadLine))
	tailLine := pmem.Addr(boot.Load(header + hdrTailLine))
	table := pmem.Addr(boot.Load(header + hdrTable))
	threads := int(boot.Load(header + hdrThreads))
	if headLine == pmem.Null || table == pmem.Null || threads <= 0 {
		return nil, fmt.Errorf("rqueue: corrupt header at %#x", uint64(header))
	}
	eng := tracking.Attach(pool, table, threads, "rqueue")
	return &Queue{
		pool: pool, eng: eng, headAddr: headLine, tailAddr: tailLine,
		header: header, tailSite: pool.RegisterSite("rqueue/pwb-tail-hint"),
	}, nil
}

// Handle binds a thread context to the queue; one per simulated thread.
type Handle struct {
	q   *Queue
	th  *tracking.Thread
	ctx *pmem.ThreadCtx
}

// Handle creates the per-thread handle for ctx.
func (q *Queue) Handle(ctx *pmem.ThreadCtx) *Handle {
	return &Handle{q: q, th: q.eng.Thread(ctx), ctx: ctx}
}

// Invoke performs the system-side invocation step; see tracking.Invoke.
func (h *Handle) Invoke() { h.th.Invoke() }

// findLast returns the current last node, advancing the tail hint past
// already-linked successors on the way.
func (h *Handle) findLast() pmem.Addr {
	c := h.ctx
	last := pmem.Addr(c.Load(h.q.tailAddr))
	for {
		next := pmem.Addr(c.Load(last + offNext))
		if next == pmem.Null {
			return last
		}
		// Help the lagging tail hint along (auxiliary, non-linearizing).
		c.CAS(h.q.tailAddr, uint64(last), uint64(next))
		last = next
	}
}

// Enqueue appends value to the queue. value must be < Empty.
func (h *Handle) Enqueue(value uint64) {
	if value >= Empty {
		panic("rqueue: value collides with a sentinel")
	}
	h.th.Invoke()
	c := h.ctx
	nd := c.AllocLocal(nodeLen)
	c.Store(nd+offValue, value)
	h.th.BeginOp()

	for {
		last := h.findLast()
		// First-observer read of a link-and-persist info word (see
		// tracking.Engine.ObservedSite).
		lastInfo := c.LoadAndPersist(h.q.eng.ObservedSite(), last+offInfo)
		if tracking.IsTagged(lastInfo) {
			h.th.Help(tracking.DescOf(lastInfo))
			continue
		}
		if c.Load(last+offNext) != uint64(pmem.Null) {
			continue // a node slipped in; re-find the last node
		}
		affect := []tracking.AffectEntry{{InfoField: last + offInfo, Observed: lastInfo, Untag: true}}
		writes := []tracking.WriteEntry{{Field: last + offNext, Old: uint64(pmem.Null), New: uint64(nd)}}
		news := []pmem.Addr{nd + offInfo}
		desc := h.th.NewDesc(OpEnqueue, ack, affect, writes, news)
		c.Store(nd+offInfo, tracking.Tagged(desc))
		h.th.Publish(desc, tracking.Region{Addr: nd, Words: nodeLen})
		h.th.Help(desc)
		if h.th.Result(desc) != tracking.Bottom {
			// Swing the tail hint to the new node and persist it
			// (recovery tolerates a stale hint; this bounds the walk).
			c.CAS(h.q.tailAddr, uint64(last), uint64(nd))
			c.PWB(h.q.tailSite, h.q.tailAddr)
			return
		}
	}
}

// Dequeue removes and returns the oldest value. ok is false (and the value
// Empty) when the queue is empty.
func (h *Handle) Dequeue() (value uint64, ok bool) {
	h.th.Invoke()
	c := h.ctx
	begun := false

	for {
		sent := pmem.Addr(c.Load(h.q.headAddr))
		sentInfo := c.LoadAndPersist(h.q.eng.ObservedSite(), sent+offInfo)
		if tracking.IsTagged(sentInfo) {
			h.th.Help(tracking.DescOf(sentInfo))
			continue
		}
		first := pmem.Addr(c.Load(sent + offNext))
		if first == pmem.Null {
			// Empty queue: a read-only outcome, decided at the next-field
			// read (next == Null means no node was ever appended after
			// the sentinel, so it is still the head). It persists nothing;
			// RecoverDequeue re-executes it.
			return Empty, false
		}
		if !begun {
			h.th.BeginOp()
			begun = true
		}
		val := c.Load(first + offValue) // immutable once linked
		affect := []tracking.AffectEntry{
			// The sentinel leaves the queue; it stays tagged forever.
			{InfoField: sent + offInfo, Observed: sentInfo, Untag: false},
		}
		writes := []tracking.WriteEntry{{Field: h.q.headAddr, Old: uint64(sent), New: uint64(first)}}
		desc := h.th.NewDesc(OpDequeue, val, affect, writes, nil)
		h.th.Publish(desc)
		h.th.Help(desc)
		if r := h.th.Result(desc); r != tracking.Bottom {
			return r, true
		}
	}
}

// RecoverEnqueue is Enqueue's recovery function.
func (h *Handle) RecoverEnqueue(value uint64) {
	if _, _, ok := h.th.Recover(); ok {
		return
	}
	h.Enqueue(value)
}

// RecoverDequeue is Dequeue's recovery function.
func (h *Handle) RecoverDequeue() (value uint64, ok bool) {
	if _, res, ok2 := h.th.Recover(); ok2 {
		return res, res != Empty
	}
	return h.Dequeue()
}

// Drain returns the values currently in the queue, oldest first
// (diagnostic; not linearizable with concurrent updates).
func (q *Queue) Drain(ctx *pmem.ThreadCtx) []uint64 {
	var out []uint64
	sent := pmem.Addr(ctx.Load(q.headAddr))
	for {
		next := pmem.Addr(ctx.Load(sent + offNext))
		if next == pmem.Null {
			return out
		}
		out = append(out, ctx.Load(next+offValue))
		sent = next
	}
}

// CheckInvariants verifies the queue's structure: the head's chain
// terminates, the tail hint is on the chain starting at the head or behind
// it, and at quiescence no node in the chain is tagged except abandoned
// sentinels before the head.
func (q *Queue) CheckInvariants(ctx *pmem.ThreadCtx, quiescent bool) error {
	maxSteps := q.pool.AllocatedWords()
	sent := pmem.Addr(ctx.Load(q.headAddr))
	steps := 0
	for n := sent; n != pmem.Null; n = pmem.Addr(ctx.Load(n + offNext)) {
		if steps++; steps > maxSteps {
			return fmt.Errorf("rqueue: chain exceeds %d nodes (cycle?)", maxSteps)
		}
		if quiescent && n != sent {
			if info := ctx.Load(n + offInfo); tracking.IsTagged(info) {
				return fmt.Errorf("rqueue: reachable node tagged at quiescence (info %#x)", info)
			}
		}
	}
	return nil
}
