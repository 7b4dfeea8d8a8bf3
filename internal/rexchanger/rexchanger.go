// Package rexchanger implements the detectably recoverable exchanger
// sketched in Section 6 of Attiya et al. (PPoPP 2022), derived from the
// elimination exchanger of Scherer, Lea and Scott with the Tracking
// approach.
//
// An exchanger lets two threads pair up and swap values. The object is a
// single persistent pointer, slot, referring to a state node:
//
//   - an EMPTY node means the exchanger is free;
//   - a WAITING node carries the value and descriptor of a thread that
//     captured the exchanger and is waiting for a partner.
//
// A thread p that finds the slot EMPTY installs a fresh WAITING node
// carrying its descriptor and spins. A thread q that finds a WAITING node
// collides: it claims the waiter's descriptor by CASing the descriptor's
// partner field from none to a reference to q's own descriptor — a unique
// value, so after a crash both sides can decide from persistent state
// whether the collision happened and with whom. The partner field is the
// linearization and the commit point of the exchange.
//
// Detectability follows the Tracking recipe: each attempt allocates a
// descriptor tracking the thread's role and progress; the descriptor and
// the thread's recovery data RD are persisted before the critical CAS; and
// a thread never returns a response before the state implying it (the
// partner field) is durable — observers flush it before acting on it, the
// standard flush-before-use rule of durable linearizability.
package rexchanger

import (
	"fmt"

	"repro/internal/pmem"
)

// Bottom is the "no result yet" sentinel in a descriptor's result field.
const Bottom = ^uint64(0)

// TimedOut is the result recorded when an exchange gives up waiting.
// Exchanged values must be smaller than TimedOut.
const TimedOut = ^uint64(0) - 1

// partner-field states (the field otherwise holds a descriptor address,
// which is always 8-aligned and > 1).
const (
	partnerNone      uint64 = 0
	partnerCancelled uint64 = 1
)

// Node kinds.
const (
	kindEmpty   uint64 = 1
	kindWaiting uint64 = 2
)

// State-node word offsets: kind, value, descriptor.
const (
	ndKind  = 0
	ndValue = pmem.WordSize
	ndDesc  = 2 * pmem.WordSize
	ndLen   = 3
)

// Descriptor word offsets.
const (
	dResult     = 0                 // Bottom | received value | TimedOut
	dValue      = pmem.WordSize     // the value this thread offers
	dTarget     = 2 * pmem.WordSize // collider: the waiter descriptor it claims
	dTargetNode = 3 * pmem.WordSize // collider: the WAITING node; waiter: its own node
	dPartner    = 4 * pmem.WordSize // waiter: none | cancelled | collider descriptor
	dLen        = 5
)

// Header word offsets.
const (
	hdrSlot    = 0
	hdrTable   = pmem.WordSize
	hdrThreads = 2 * pmem.WordSize
	hdrLen     = 3
)

type sites struct {
	cp      pmem.Site
	rd      pmem.Site
	publish pmem.Site
	slot    pmem.Site
	partner pmem.Site
	result  pmem.Site
}

func registerSites(pool *pmem.Pool) sites {
	return sites{
		cp:      pool.RegisterSite("rexch/pwb-CP"),
		rd:      pool.RegisterSite("rexch/pwb-RD"),
		publish: pool.RegisterSite("rexch/pwb-desc+node"),
		slot:    pool.RegisterSite("rexch/pwb-slot"),
		partner: pool.RegisterSite("rexch/pwb-partner"),
		result:  pool.RegisterSite("rexch/pwb-result"),
	}
}

// Exchanger is a detectably recoverable two-party value exchanger.
type Exchanger struct {
	pool   *pmem.Pool
	slot   pmem.Addr // address of the slot word
	table  pmem.Addr // per-thread CP/RD lines
	header pmem.Addr
	s      sites
}

// New creates an exchanger for up to maxThreads threads and records its
// header in rootSlot.
func New(pool *pmem.Pool, maxThreads, rootSlot int) *Exchanger {
	boot := pool.NewThread(0)
	table := boot.AllocLines(maxThreads)
	empty := boot.AllocLocal(ndLen)
	boot.Store(empty+ndKind, kindEmpty)
	// The slot gets its own line: it is the contended word of the object.
	slotLine := boot.AllocLines(1)
	boot.Store(slotLine, uint64(empty))

	header := boot.AllocLocal(hdrLen)
	boot.Store(header+hdrSlot, uint64(slotLine))
	boot.Store(header+hdrTable, uint64(table))
	boot.Store(header+hdrThreads, uint64(maxThreads))

	boot.PWBRange(pmem.NoSite, table, maxThreads*pmem.LineWords)
	boot.PWBRange(pmem.NoSite, empty, ndLen)
	boot.PWB(pmem.NoSite, slotLine)
	boot.PWBRange(pmem.NoSite, header, hdrLen)
	boot.PFence()
	root := pool.RootSlot(rootSlot)
	boot.Store(root, uint64(header))
	boot.PWB(pmem.NoSite, root)
	boot.PSync()

	return &Exchanger{pool: pool, slot: slotLine, table: table, header: header, s: registerSites(pool)}
}

// Attach reconstructs an Exchanger from the header in rootSlot.
func Attach(pool *pmem.Pool, rootSlot int) (*Exchanger, error) {
	boot := pool.NewThread(0)
	header := pmem.Addr(boot.Load(pool.RootSlot(rootSlot)))
	if header == pmem.Null {
		return nil, fmt.Errorf("rexchanger: root slot %d holds no exchanger", rootSlot)
	}
	slot := pmem.Addr(boot.Load(header + hdrSlot))
	table := pmem.Addr(boot.Load(header + hdrTable))
	threads := int(boot.Load(header + hdrThreads))
	if slot == pmem.Null || table == pmem.Null || threads <= 0 {
		return nil, fmt.Errorf("rexchanger: corrupt header at %#x", uint64(header))
	}
	return &Exchanger{pool: pool, slot: slot, table: table, header: header, s: registerSites(pool)}, nil
}

// Handle binds a thread context to the exchanger; one per simulated thread.
type Handle struct {
	ex  *Exchanger
	ctx *pmem.ThreadCtx
	cp  pmem.Addr
	rd  pmem.Addr
}

// Handle creates the per-thread handle for ctx.
func (ex *Exchanger) Handle(ctx *pmem.ThreadCtx) *Handle {
	line := ex.table + pmem.Addr(ctx.TID()*pmem.LineBytes)
	return &Handle{ex: ex, ctx: ctx, cp: line, rd: line + pmem.WordSize}
}

// Invoke performs the system-side failure-atomic invocation step.
func (h *Handle) Invoke() { h.ctx.StoreDurable(h.ex.s.cp, h.cp, 0) }

func (h *Handle) beginOp() {
	c := h.ctx
	c.Store(h.rd, uint64(pmem.Null))
	c.PWB(h.ex.s.rd, h.rd)
	c.PFence()
	c.Store(h.cp, 1)
	c.PWB(h.ex.s.cp, h.cp)
	c.PSync()
}

// newDesc allocates a descriptor for one attempt.
func (h *Handle) newDesc(value uint64) pmem.Addr {
	c := h.ctx
	d := c.AllocLocal(dLen)
	c.Store(d+dResult, Bottom)
	c.Store(d+dValue, value)
	return d
}

// publish persists the descriptor (and the attempt's fresh node, if any)
// and installs it in RD. After publish, the attempt is recoverable.
func (h *Handle) publish(d pmem.Addr, node pmem.Addr) {
	c := h.ctx
	c.PWBRange(h.ex.s.publish, d, dLen)
	if node != pmem.Null {
		c.PWBRange(h.ex.s.publish, node, ndLen)
	}
	c.PFence()
	c.Store(h.rd, uint64(d))
	c.PWB(h.ex.s.rd, h.rd)
	c.PSync()
}

// setResult records and persists the attempt's response.
func (h *Handle) setResult(d pmem.Addr, v uint64) {
	c := h.ctx
	c.CAS(d+dResult, Bottom, v)
	c.PWB(h.ex.s.result, d+dResult)
	c.PSync()
}

// Exchange offers value and waits up to maxSpins slot/partner inspections
// for a partner. It returns the partner's value, or (TimedOut, false) if no
// partner arrived. value must be < TimedOut.
func (h *Handle) Exchange(value uint64, maxSpins int) (uint64, bool) {
	if value >= TimedOut {
		panic("rexchanger: value collides with a sentinel")
	}
	h.Invoke()
	h.beginOp()
	return h.exchange(value, maxSpins)
}

func (h *Handle) exchange(value uint64, maxSpins int) (uint64, bool) {
	c := h.ctx
	ex := h.ex
	spins := 0
	for {
		if spins >= maxSpins {
			return TimedOut, false
		}
		spins++
		nd := pmem.Addr(c.Load(ex.slot))
		switch c.Load(nd + ndKind) {
		case kindEmpty:
			// Capture the exchanger with a fresh WAITING node.
			d := h.newDesc(value)
			wn := c.AllocLocal(ndLen)
			c.Store(wn+ndKind, kindWaiting)
			c.Store(wn+ndValue, value)
			c.Store(wn+ndDesc, uint64(d))
			c.Store(d+dTargetNode, uint64(wn))
			h.publish(d, wn)
			if !c.CAS(ex.slot, uint64(nd), uint64(wn)) {
				continue // somebody beat us; retry with a fresh attempt
			}
			c.PWB(ex.s.slot, ex.slot)
			c.PSync()
			if v, ok := h.await(d, wn, maxSpins-spins); ok {
				return v, v != TimedOut
			}
			// await gave up without resolving; keep trying.
			continue

		case kindWaiting:
			wd := pmem.Addr(c.Load(nd + ndDesc))
			// Collide: claim the waiter's descriptor. Our descriptor
			// records the target first so recovery can decide whether
			// the claim succeeded.
			d := h.newDesc(value)
			c.Store(d+dTarget, uint64(wd))
			c.Store(d+dTargetNode, uint64(nd))
			h.publish(d, pmem.Null)
			claimed := c.CAS(wd+dPartner, partnerNone, uint64(d))
			c.PWB(ex.s.partner, wd+dPartner)
			c.PSync()
			// Help reset the slot whichever way the claim went; the
			// replacement is fresh so slot values never repeat.
			h.resetSlot(nd)
			if claimed {
				got := c.Load(wd + dValue)
				h.setResult(d, got)
				return got, true
			}
			continue

		default:
			panic(fmt.Sprintf("rexchanger: slot node %#x has invalid kind", uint64(nd)))
		}
	}
}

// await spins on the waiter's own descriptor until a collider claims it or
// the spin budget runs out (in which case the waiter cancels). ok == false
// means the attempt was superseded without resolution and must be retried
// (cannot happen in the current protocol, but keeps the contract explicit).
func (h *Handle) await(d, wn pmem.Addr, budget int) (uint64, bool) {
	c := h.ctx
	ex := h.ex
	for i := 0; ; i++ {
		// Busy-waiting yields the processor so a potential partner
		// gets scheduled (essential on few-core hosts).
		c.Pause()
		p := c.Load(d + dPartner)
		switch p {
		case partnerNone:
			if i >= budget {
				// Give up: cancel the capture. The CAS races with
				// a late collider; the winner decides the outcome.
				if c.CAS(d+dPartner, partnerNone, partnerCancelled) {
					c.PWB(ex.s.partner, d+dPartner)
					c.PSync()
					h.resetSlot(wn)
					h.setResult(d, TimedOut)
					return TimedOut, true
				}
				continue // lost the race: a partner arrived after all
			}
		case partnerCancelled:
			h.resetSlot(wn)
			h.setResult(d, TimedOut)
			return TimedOut, true
		default:
			// A collider claimed us. Flush the claim before acting on
			// it (flush-before-use), so the collider's recovery sees
			// the same outcome.
			c.PWB(ex.s.partner, d+dPartner)
			c.PSync()
			got := c.Load(pmem.Addr(p) + dValue)
			h.resetSlot(wn)
			h.setResult(d, got)
			return got, true
		}
	}
}

// resetSlot replaces the WAITING node nd with a fresh EMPTY node if nd is
// still installed. Any thread may perform this cleanup. The EMPTY node is
// made durable (PSync, not just ordered by a fence) before the CAS
// publishes it: once the slot points at it, any thread may persist the
// slot — a waiter flushing after its own install, a racing resetter — and
// a fence orders only this thread's write-backs, so a crash could
// otherwise keep the pointer and lose the node.
func (h *Handle) resetSlot(nd pmem.Addr) {
	c := h.ctx
	if pmem.Addr(c.Load(h.ex.slot)) != nd {
		return
	}
	empty := c.AllocLocal(ndLen)
	c.Store(empty+ndKind, kindEmpty)
	c.PWBRange(h.ex.s.publish, empty, ndLen)
	c.PSync()
	c.CAS(h.ex.slot, uint64(nd), uint64(empty))
	c.PWB(h.ex.s.slot, h.ex.slot)
	c.PSync()
}

// RecoverExchange is Exchange's recovery function: called by the system,
// with the original arguments, when resurrecting a thread that crashed
// inside Exchange. It determines from persistent state whether the exchange
// took effect, resumes waiting if the thread still holds the exchanger, or
// re-invokes the operation.
func (h *Handle) RecoverExchange(value uint64, maxSpins int) (uint64, bool) {
	c := h.ctx
	if c.Load(h.cp) == 0 {
		return h.Exchange(value, maxSpins)
	}
	d := pmem.Addr(c.Load(h.rd))
	if d == pmem.Null {
		return h.Exchange(value, maxSpins)
	}
	if r := c.Load(d + dResult); r != Bottom {
		return r, r != TimedOut
	}
	if target := pmem.Addr(c.Load(d + dTarget)); target != pmem.Null {
		// Collider role: the claim CAS is the commit point; its unique
		// value tells us whether we won.
		if c.Load(target+dPartner) == uint64(d) {
			c.PWB(h.ex.s.partner, target+dPartner)
			c.PSync()
			h.resetSlot(pmem.Addr(c.Load(d + dTargetNode)))
			got := c.Load(target + dValue)
			h.setResult(d, got)
			return got, true
		}
		// The claim did not take effect (or was lost with the waiter's
		// un-persisted state): the attempt had no visible effect.
		return h.exchange(value, maxSpins)
	}
	// Waiter role.
	wn := pmem.Addr(c.Load(d + dTargetNode))
	switch p := c.Load(d + dPartner); p {
	case partnerNone:
		if pmem.Addr(c.Load(h.ex.slot)) == wn {
			// Still captured: resume waiting.
			if v, ok := h.await(d, wn, maxSpins); ok {
				return v, v != TimedOut
			}
			return h.exchange(value, maxSpins)
		}
		// Never durably installed: the attempt had no visible effect.
		return h.exchange(value, maxSpins)
	case partnerCancelled:
		h.resetSlot(wn)
		h.setResult(d, TimedOut)
		return TimedOut, false
	default:
		c.PWB(h.ex.s.partner, d+dPartner)
		c.PSync()
		got := c.Load(pmem.Addr(p) + dValue)
		h.resetSlot(wn)
		h.setResult(d, got)
		return got, true
	}
}
