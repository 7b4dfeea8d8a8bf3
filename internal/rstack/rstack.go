// Package rstack applies the Tracking approach of Attiya et al. (PPoPP
// 2022) to the Treiber lock-free stack, yielding a detectably recoverable
// LIFO stack. Stacks are, with queues, the structures most of the paper's
// related work targets (Section 7 cites recoverable stacks alongside
// queues); like internal/rqueue, this package is built entirely from the
// generic engine's phases, with no stack-specific recovery code.
//
// The stack is a top pointer over singly linked nodes, with a permanent
// sentinel at the bottom so the AffectSet is never empty:
//
//   - Push(v) tags the current top node, then swings top to a fresh node
//     whose next is the old top. The old top stays in the stack and is
//     untagged at cleanup.
//   - Pop() tags the current top node T and swings top to a *fresh copy*
//     of the node beneath T, returning T's (immutable) value; T and the
//     copied node leave the stack tagged forever. Pop on the empty stack
//     (the top node carries the sentinel value) is read-only: it persists
//     nothing, and RecoverPop re-executes it.
//
// The copy in Pop is the same ABA-avoidance device the paper's list Insert
// uses (Algorithm 3's newcurr): if Pop re-exposed the old node, the top
// pointer would hold the same value twice and a stalled helper's replayed
// Push CAS could reinstall an already-popped node. With fresh nodes from
// Push and fresh copies from Pop, every top CAS's expected value is unique
// forever, which is assumption (a) of Section 3 and what makes Help's
// replays idempotent. A node's value and next are written only before it
// is published, so the copy reads immutable fields.
package rstack

import (
	"fmt"

	"repro/internal/pmem"
	"repro/internal/tracking"
)

// Operation type codes.
const (
	OpPush uint64 = 1
	OpPop  uint64 = 2
)

// Empty is the pop response on an empty stack. Pushed values must be
// smaller than Empty.
const Empty uint64 = 1 << 62

// ack is the response recorded for a successful push.
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
	hdrTopLine = 0
	hdrTable   = pmem.WordSize
	hdrThreads = 2 * pmem.WordSize
	hdrLen     = 3
)

// Stack is a detectably recoverable LIFO stack of uint64 values.
type Stack struct {
	pool    *pmem.Pool
	eng     *tracking.Engine
	topAddr pmem.Addr // word holding the current top node's address
	header  pmem.Addr
}

// newSentinel allocates a bottom-of-stack node (its value is the Empty
// marker; pops of a sentinel take the read-only empty path).
func newSentinel(ctx *pmem.ThreadCtx) pmem.Addr {
	nd := ctx.AllocLocal(nodeLen)
	ctx.Store(nd+offValue, Empty)
	return nd
}

// New creates an empty stack for up to maxThreads threads and records its
// header in rootSlot.
func New(pool *pmem.Pool, maxThreads, rootSlot int) *Stack {
	eng := tracking.New(pool, maxThreads, "rstack")
	boot := pool.NewThread(0)

	sentinel := newSentinel(boot)
	topLine := boot.AllocLines(1) // the hot word gets its own line
	boot.Store(topLine, uint64(sentinel))

	header := boot.AllocLocal(hdrLen)
	boot.Store(header+hdrTopLine, uint64(topLine))
	boot.Store(header+hdrTable, uint64(eng.TableAddr()))
	boot.Store(header+hdrThreads, uint64(maxThreads))

	boot.PWBRange(pmem.NoSite, sentinel, nodeLen)
	boot.PWB(pmem.NoSite, topLine)
	boot.PWBRange(pmem.NoSite, header, hdrLen)
	boot.PFence()
	root := pool.RootSlot(rootSlot)
	boot.Store(root, uint64(header))
	boot.PWB(pmem.NoSite, root)
	boot.PSync()

	return &Stack{pool: pool, eng: eng, topAddr: topLine, header: header}
}

// Attach reconstructs a Stack from the header in rootSlot.
func Attach(pool *pmem.Pool, rootSlot int) (*Stack, error) {
	boot := pool.NewThread(0)
	header := pmem.Addr(boot.Load(pool.RootSlot(rootSlot)))
	if header == pmem.Null {
		return nil, fmt.Errorf("rstack: root slot %d holds no stack", rootSlot)
	}
	topLine := pmem.Addr(boot.Load(header + hdrTopLine))
	table := pmem.Addr(boot.Load(header + hdrTable))
	threads := int(boot.Load(header + hdrThreads))
	if topLine == pmem.Null || table == pmem.Null || threads <= 0 {
		return nil, fmt.Errorf("rstack: corrupt header at %#x", uint64(header))
	}
	eng := tracking.Attach(pool, table, threads, "rstack")
	return &Stack{pool: pool, eng: eng, topAddr: topLine, header: header}, nil
}

// Handle binds a thread context to the stack; one per simulated thread.
type Handle struct {
	s   *Stack
	th  *tracking.Thread
	ctx *pmem.ThreadCtx
}

// Handle creates the per-thread handle for ctx.
func (s *Stack) Handle(ctx *pmem.ThreadCtx) *Handle {
	return &Handle{s: s, th: s.eng.Thread(ctx), ctx: ctx}
}

// Invoke performs the system-side invocation step; see tracking.Invoke.
func (h *Handle) Invoke() { h.th.Invoke() }

// readTop returns the top node and an info value it held while it was the
// top: the top pointer is re-read after the info word, until it is
// unchanged. A node the top pointer has moved off can sit untagged beneath
// a newer one (a Push covers the old top and untags it at cleanup), so an
// info value read after such a move would let a stale operation tag the
// covered node and record a result whose update never applied — a pop of
// a value still stacked, or a push that linked nothing. Every operation
// that moves the top pointer off a node tags that node first, and top
// values never recur, so with the re-read a tagging CAS of the observed
// value succeeds only while the node is still the top.
func (h *Handle) readTop() (top pmem.Addr, info uint64) {
	c := h.ctx
	top = pmem.Addr(c.Load(h.s.topAddr))
	for {
		info = c.Load(top + offInfo)
		again := pmem.Addr(c.Load(h.s.topAddr))
		if again == top {
			return top, info
		}
		top = again
	}
}

// Push adds value on top of the stack. value must be < Empty.
func (h *Handle) Push(value uint64) {
	if value >= Empty {
		panic("rstack: value collides with a sentinel")
	}
	h.th.Invoke()
	c := h.ctx
	nd := c.AllocLocal(nodeLen)
	c.Store(nd+offValue, value)
	h.th.BeginOp()

	for {
		top, topInfo := h.readTop()
		if tracking.IsTagged(topInfo) {
			h.th.Help(tracking.DescOf(topInfo))
			continue
		}
		c.Store(nd+offNext, uint64(top))
		affect := []tracking.AffectEntry{
			// The old top stays in the stack beneath the new node.
			{InfoField: top + offInfo, Observed: topInfo, Untag: true},
		}
		writes := []tracking.WriteEntry{{Field: h.s.topAddr, Old: uint64(top), New: uint64(nd)}}
		news := []pmem.Addr{nd + offInfo}
		desc := h.th.NewDesc(OpPush, ack, affect, writes, news)
		c.Store(nd+offInfo, tracking.Tagged(desc))
		h.th.Publish(desc, tracking.Region{Addr: nd, Words: nodeLen})
		h.th.Help(desc)
		if h.th.Result(desc) != tracking.Bottom {
			return
		}
	}
}

// Pop removes and returns the newest value. ok is false (and the value
// Empty) when the stack is empty.
func (h *Handle) Pop() (value uint64, ok bool) {
	h.th.Invoke()
	c := h.ctx
	begun := false

	for {
		top, topInfo := h.readTop()
		if tracking.IsTagged(topInfo) {
			h.th.Help(tracking.DescOf(topInfo))
			continue
		}
		val := c.Load(top + offValue) // immutable once published
		if val == Empty {
			// Empty stack: a read-only outcome, decided at the sentinel-
			// value read with the top's tag state observed untagged. It
			// persists nothing; RecoverPop re-executes it.
			return Empty, false
		}
		if !begun {
			h.th.BeginOp()
			begun = true
		}
		// Replace the node beneath top with a fresh copy so the top
		// pointer never holds the same value twice (see the package
		// comment). under's value and next are immutable.
		under := pmem.Addr(c.Load(top + offNext))
		affect := []tracking.AffectEntry{
			// The popped node leaves the stack; it stays tagged.
			{InfoField: top + offInfo, Observed: topInfo, Untag: false},
		}
		copyNd := c.AllocLocal(nodeLen)
		c.Store(copyNd+offValue, c.Load(under+offValue))
		c.Store(copyNd+offNext, c.Load(under+offNext))
		writes := []tracking.WriteEntry{{Field: h.s.topAddr, Old: uint64(top), New: uint64(copyNd)}}
		news := []pmem.Addr{copyNd + offInfo}
		desc := h.th.NewDesc(OpPop, val, affect, writes, news)
		c.Store(copyNd+offInfo, tracking.Tagged(desc))
		h.th.Publish(desc, tracking.Region{Addr: copyNd, Words: nodeLen})
		h.th.Help(desc)
		if r := h.th.Result(desc); r != tracking.Bottom {
			return r, true
		}
	}
}

// RecoverPush is Push's recovery function.
func (h *Handle) RecoverPush(value uint64) {
	if _, _, ok := h.th.Recover(); ok {
		return
	}
	h.Push(value)
}

// RecoverPop is Pop's recovery function.
func (h *Handle) RecoverPop() (value uint64, ok bool) {
	if _, res, ok2 := h.th.Recover(); ok2 {
		return res, res != Empty
	}
	return h.Pop()
}

// Snapshot returns the stack's values, top first (diagnostic; not
// linearizable with concurrent updates).
func (s *Stack) Snapshot(ctx *pmem.ThreadCtx) []uint64 {
	var out []uint64
	nd := pmem.Addr(ctx.Load(s.topAddr))
	for ctx.Load(nd+offValue) != Empty {
		out = append(out, ctx.Load(nd+offValue))
		nd = pmem.Addr(ctx.Load(nd + offNext))
	}
	return out
}

// CheckInvariants verifies the chain from top reaches a sentinel node and
// at quiescence no reachable node is tagged.
func (s *Stack) CheckInvariants(ctx *pmem.ThreadCtx, quiescent bool) error {
	maxSteps := s.pool.AllocatedWords()
	steps := 0
	for nd := pmem.Addr(ctx.Load(s.topAddr)); ; nd = pmem.Addr(ctx.Load(nd + offNext)) {
		if nd == pmem.Null {
			return fmt.Errorf("rstack: chain fell off before a sentinel")
		}
		if steps++; steps > maxSteps {
			return fmt.Errorf("rstack: chain exceeds %d nodes (cycle?)", maxSteps)
		}
		if quiescent {
			if info := ctx.Load(nd + offInfo); tracking.IsTagged(info) {
				return fmt.Errorf("rstack: reachable node tagged at quiescence (info %#x)", info)
			}
		}
		if ctx.Load(nd+offValue) == Empty {
			return nil
		}
	}
}
