// Package rbst implements the detectably recoverable leaf-oriented
// (external) binary search tree of Attiya et al. (PPoPP 2022), Algorithms 5
// and 6 — the non-blocking BST of Ellen, Fatourou, Ruppert and van Breugel
// (PODC 2010) made detectably recoverable with the Tracking approach.
//
// Keys live at the leaves; internal nodes route searches: a search for k
// descends left when k < node.key and right otherwise. The tree is
// initialized with a root holding the large sentinel key Inf2 and two leaf
// children Inf1 and Inf2, which guarantees every real key's leaf has both a
// parent and a grandparent.
//
//   - Insert(k) replaces the reached leaf l with a fresh three-node
//     subtree: an internal node with key max(k, l.key) whose children are
//     a new leaf k and a copy of l. Only the parent p is tagged.
//   - Delete(k) splices leaf l and its parent p out by swinging the
//     grandparent's child pointer to l's sibling. gp and p are tagged, in
//     ancestor order; p leaves the tree and stays tagged forever.
//   - Find(k), an Insert of a present key and a Delete of an absent key
//     are read-only: they return straight from the gather phase, persist
//     nothing, and their recovery functions re-execute them (see the
//     tracking package doc for why that is sound).
//
// Find linearizes by re-reading the parent p's info word after reading the
// leaf: leaves carry no info field (Figure 7), so the parent's is the one
// that changes when the leaf is replaced.
package rbst

import (
	"fmt"
	"math"

	"repro/internal/pmem"
	"repro/internal/recovery"
	"repro/internal/tracking"
)

// Operation type codes.
const (
	OpInsert uint64 = 1
	OpDelete uint64 = 2
	OpFind   uint64 = 3
)

// Operation results.
const (
	ResultFalse uint64 = 0
	ResultTrue  uint64 = 1
)

// Sentinel keys: every user key must be < Inf1.
const (
	Inf1 int64 = math.MaxInt64 - 1
	Inf2 int64 = math.MaxInt64
)

// Node kinds. Zero is invalid so that uninitialized memory is detected.
const (
	kindLeaf     uint64 = 1
	kindInternal uint64 = 2
)

// Node word offsets. Leaves use only kind and key.
const (
	offKind  = 0
	offKey   = pmem.WordSize
	offLeft  = 2 * pmem.WordSize
	offRight = 3 * pmem.WordSize
	offInfo  = 4 * pmem.WordSize

	leafLen     = 2
	internalLen = 5
)

// Header word offsets.
const (
	hdrRoot    = 0
	hdrTable   = pmem.WordSize
	hdrThreads = 2 * pmem.WordSize
	hdrLen     = 3
)

// Tree is a detectably recoverable set of int64 keys backed by an external
// BST.
type Tree struct {
	pool   *pmem.Pool
	eng    *tracking.Engine
	root   pmem.Addr
	header pmem.Addr
}

func newLeaf(ctx *pmem.ThreadCtx, key int64) pmem.Addr {
	l := ctx.AllocLocal(leafLen)
	ctx.Store(l+offKind, kindLeaf)
	ctx.Store(l+offKey, uint64(key))
	return l
}

// New creates an empty tree for up to maxThreads threads and records its
// header in rootSlot.
func New(pool *pmem.Pool, maxThreads, rootSlot int) *Tree {
	slot, slotErr := pool.RootSlotChecked(rootSlot)
	if slotErr != nil {
		panic("rbst: " + slotErr.Error())
	}
	eng := tracking.New(pool, maxThreads, "rbst")
	boot := pool.NewThread(0)

	l1 := newLeaf(boot, Inf1)
	l2 := newLeaf(boot, Inf2)
	// The root internal node is on every search path and is the first
	// CAS target of updates near the top of the tree; give it its own line.
	root := boot.AllocLines(1)
	boot.Store(root+offKind, kindInternal)
	boot.Store(root+offKey, uint64(Inf2))
	boot.Store(root+offLeft, uint64(l1))
	boot.Store(root+offRight, uint64(l2))

	header := boot.AllocLocal(hdrLen)
	boot.Store(header+hdrRoot, uint64(root))
	boot.Store(header+hdrTable, uint64(eng.TableAddr()))
	boot.Store(header+hdrThreads, uint64(maxThreads))

	boot.PWBRange(pmem.NoSite, l1, leafLen)
	boot.PWBRange(pmem.NoSite, l2, leafLen)
	boot.PWBRange(pmem.NoSite, root, internalLen)
	boot.PWBRange(pmem.NoSite, header, hdrLen)
	boot.PFence()
	boot.Store(slot, uint64(header))
	boot.PWB(pmem.NoSite, slot)
	boot.PSync()

	return &Tree{pool: pool, eng: eng, root: root, header: header}
}

// Attach reconstructs a Tree from the header in rootSlot, typically after
// pool recovery. Slot index, header address, and header fields are all
// validated before use, so a fresh pool or a slot holding a non-pointer
// value yields a descriptive error rather than an out-of-bounds panic
// mid-parse.
func Attach(pool *pmem.Pool, rootSlot int) (*Tree, error) {
	slot, err := pool.RootSlotChecked(rootSlot)
	if err != nil {
		return nil, fmt.Errorf("rbst: %w", err)
	}
	boot := pool.NewThread(0)
	header := pmem.Addr(boot.Load(slot))
	if header == pmem.Null {
		return nil, fmt.Errorf("rbst: root slot %d holds no tree", rootSlot)
	}
	if !pool.ValidWords(header, hdrLen) {
		return nil, fmt.Errorf("rbst: root slot %d holds %#x, not a header address",
			rootSlot, uint64(header))
	}
	root := pmem.Addr(boot.Load(header + hdrRoot))
	table := pmem.Addr(boot.Load(header + hdrTable))
	threads := int(boot.Load(header + hdrThreads))
	if !pool.ValidWords(root, internalLen) || !pool.ValidWords(table, 1) || threads <= 0 {
		return nil, fmt.Errorf("rbst: corrupt header at %#x", uint64(header))
	}
	eng := tracking.Attach(pool, table, threads, "rbst")
	return &Tree{pool: pool, eng: eng, root: root, header: header}, nil
}

// Handle binds a thread context to the tree; one per simulated thread.
type Handle struct {
	tree *Tree
	th   *tracking.Thread
	ctx  *pmem.ThreadCtx
}

// Handle creates the per-thread handle for ctx.
func (t *Tree) Handle(ctx *pmem.ThreadCtx) *Handle {
	return &Handle{tree: t, th: t.eng.Thread(ctx), ctx: ctx}
}

// Invoke performs the system-side invocation step; see tracking.Invoke.
func (h *Handle) Invoke() { h.th.Invoke() }

func checkKey(key int64) {
	if key >= Inf1 {
		panic("rbst: key collides with a sentinel")
	}
}

// search descends from the root to a leaf (Algorithm 5 lines 30-39),
// remembering the parent, grandparent, and the info values read on the way
// down.
func (h *Handle) search(key int64) (gp, p, l pmem.Addr, gpInfo, pInfo uint64) {
	c := h.ctx
	// Info words are link-and-persist words: a descent that catches one
	// still dirty-marked persists it as its first observer (recorded at
	// the engine's observed site); durable ones read at plain-load cost.
	obs := h.tree.eng.ObservedSite()
	l = h.tree.root
	for c.Load(l+offKind) == kindInternal {
		gp, p = p, l
		gpInfo = pInfo
		pInfo = c.LoadAndPersist(obs, l+offInfo)
		if key < int64(c.Load(l+offKey)) {
			l = pmem.Addr(c.Load(l + offLeft))
		} else {
			l = pmem.Addr(c.Load(l + offRight))
		}
	}
	return gp, p, l, gpInfo, pInfo
}

// Insert adds key to the set and reports whether it was absent
// (Algorithm 5).
func (h *Handle) Insert(key int64) bool {
	checkKey(key)
	h.th.Invoke()
	c := h.ctx
	// The first attempt that publishes allocates the new leaf (Algorithm 5
	// line 1) and begins the operation; a present key needs neither.
	var newLf pmem.Addr

	for {
		_, p, l, _, pInfo := h.search(key)
		if tracking.IsTagged(pInfo) {
			h.th.Help(tracking.DescOf(pInfo))
			continue
		}
		lKey := int64(c.Load(l + offKey))
		if lKey == key {
			return false // read-only outcome: RecoverInsert re-executes it
		}
		if newLf == pmem.Null {
			newLf = newLeaf(c, key)
			h.th.BeginOp()
		}

		// Build the replacement subtree: internal node with the larger
		// key, new leaf and a copy of l as children in key order (lines
		// 14-15).
		newSibling := newLeaf(c, lKey)
		newInternal := c.AllocLocal(internalLen)
		c.Store(newInternal+offKind, kindInternal)
		if key < lKey {
			c.Store(newInternal+offKey, uint64(lKey))
			c.Store(newInternal+offLeft, uint64(newLf))
			c.Store(newInternal+offRight, uint64(newSibling))
		} else {
			c.Store(newInternal+offKey, uint64(key))
			c.Store(newInternal+offLeft, uint64(newSibling))
			c.Store(newInternal+offRight, uint64(newLf))
		}
		childOff := pmem.Addr(offRight)
		if l == pmem.Addr(c.Load(p+offLeft)) {
			childOff = offLeft
		}
		affect := []tracking.AffectEntry{{InfoField: p + offInfo, Observed: pInfo, Untag: true}}
		writes := []tracking.WriteEntry{{Field: p + childOff, Old: uint64(l), New: uint64(newInternal)}}
		news := []pmem.Addr{newInternal + offInfo}
		desc := h.th.NewDesc(OpInsert, ResultTrue, affect, writes, news)
		c.Store(newInternal+offInfo, tracking.Tagged(desc))
		h.th.Publish(desc,
			tracking.Region{Addr: newLf, Words: leafLen},
			tracking.Region{Addr: newSibling, Words: leafLen},
			tracking.Region{Addr: newInternal, Words: internalLen})
		h.th.Help(desc)
		if h.th.Result(desc) != tracking.Bottom {
			return h.th.Result(desc) == ResultTrue
		}
	}
}

// Delete removes key from the set and reports whether it was present
// (Algorithm 6).
func (h *Handle) Delete(key int64) bool {
	checkKey(key)
	h.th.Invoke()
	c := h.ctx
	begun := false

	for {
		gp, p, l, gpInfo, pInfo := h.search(key)
		if tracking.IsTagged(gpInfo) {
			h.th.Help(tracking.DescOf(gpInfo))
			continue
		}
		if tracking.IsTagged(pInfo) {
			h.th.Help(tracking.DescOf(pInfo))
			continue
		}
		if int64(c.Load(l+offKey)) != key {
			return false // read-only outcome: RecoverDelete re-executes it
		}
		if !begun {
			h.th.BeginOp()
			begun = true
		}

		// Real keys always have a grandparent thanks to the sentinel
		// structure.
		affect := []tracking.AffectEntry{
			{InfoField: gp + offInfo, Observed: gpInfo, Untag: true},
			// p is spliced out of the tree; it stays tagged.
			{InfoField: p + offInfo, Observed: pInfo, Untag: false},
		}
		var other uint64
		if l == pmem.Addr(c.Load(p+offLeft)) {
			other = c.Load(p + offRight)
		} else {
			other = c.Load(p + offLeft)
		}
		childOff := pmem.Addr(offRight)
		if p == pmem.Addr(c.Load(gp+offLeft)) {
			childOff = offLeft
		}
		writes := []tracking.WriteEntry{{Field: gp + childOff, Old: uint64(p), New: other}}
		desc := h.th.NewDesc(OpDelete, ResultTrue, affect, writes, nil)
		h.th.Publish(desc)
		h.th.Help(desc)
		if h.th.Result(desc) != tracking.Bottom {
			return h.th.Result(desc) == ResultTrue
		}
	}
}

// Find reports whether key is in the set. It is read-only: no tagging,
// no descriptor, nothing persisted — RecoverFind re-executes it.
func (h *Handle) Find(key int64) bool {
	checkKey(key)
	h.th.Invoke()
	c := h.ctx
	for {
		_, p, l, _, pInfo := h.search(key)
		if tracking.IsTagged(pInfo) {
			h.th.Help(tracking.DescOf(pInfo))
			continue
		}
		found := int64(c.Load(l+offKey)) == key
		// Linearize at re-reading p's info: if it changed since the
		// descent, the observed leaf may be stale — retry. The re-read is
		// a first-observer read like the descent's, so a dirty-marked but
		// logically unchanged info word does not force a spurious retry.
		if c.LoadAndPersist(h.tree.eng.ObservedSite(), p+offInfo) != pInfo {
			continue
		}
		return found
	}
}

// RecoverInsert is Insert's recovery function (same contract as
// rlist.RecoverInsert).
func (h *Handle) RecoverInsert(key int64) bool {
	if _, res, ok := h.th.Recover(); ok {
		return res == ResultTrue
	}
	return h.Insert(key)
}

// RecoverDelete is Delete's recovery function.
func (h *Handle) RecoverDelete(key int64) bool {
	if _, res, ok := h.th.Recover(); ok {
		return res == ResultTrue
	}
	return h.Delete(key)
}

// RecoverFind is Find's recovery function.
func (h *Handle) RecoverFind(key int64) bool {
	if _, res, ok := h.th.Recover(); ok {
		return res == ResultTrue
	}
	return h.Find(key)
}

// Keys returns the user keys currently in the tree in sorted order
// (diagnostic; not linearizable with concurrent updates).
func (t *Tree) Keys(ctx *pmem.ThreadCtx) []int64 {
	var out []int64
	var walk func(a pmem.Addr)
	walk = func(a pmem.Addr) {
		if ctx.Load(a+offKind) == kindLeaf {
			if k := int64(ctx.Load(a + offKey)); k < Inf1 {
				out = append(out, k)
			}
			return
		}
		walk(pmem.Addr(ctx.Load(a + offLeft)))
		walk(pmem.Addr(ctx.Load(a + offRight)))
	}
	walk(t.root)
	return out
}

// CheckInvariants verifies the external-BST shape: every internal node has
// two children, left-subtree leaf keys are smaller than the node key and
// right-subtree keys are at least it, leaves are unique for user keys, and
// (when quiescent) no reachable internal node is left tagged.
func (t *Tree) CheckInvariants(ctx *pmem.ThreadCtx, quiescent bool) error {
	return t.checkWalk(ctx, t.root, math.MinInt64, math.MaxInt64, 0, quiescent, map[int64]bool{})
}

// checkWalk recursively audits the subtree at a against key range [lo, hi].
// seen tracks user-key duplicates within the walk's scope; disjoint key
// ranges may use disjoint seen maps, because a duplicate across two ranges
// necessarily violates one range bound and is reported as such.
func (t *Tree) checkWalk(ctx *pmem.ThreadCtx, a pmem.Addr, lo, hi int64, depth int, quiescent bool, seen map[int64]bool) error {
	if a == pmem.Null {
		return fmt.Errorf("rbst: nil child pointer at depth %d", depth)
	}
	if depth > 512 {
		return fmt.Errorf("rbst: depth exceeds 512 (cycle?)")
	}
	kind := ctx.Load(a + offKind)
	key := int64(ctx.Load(a + offKey))
	if key < lo || key > hi {
		return fmt.Errorf("rbst: key %d outside range [%d,%d]", key, lo, hi)
	}
	switch kind {
	case kindLeaf:
		if key < Inf1 {
			if seen[key] {
				return fmt.Errorf("rbst: duplicate leaf key %d", key)
			}
			seen[key] = true
		}
		return nil
	case kindInternal:
		if quiescent {
			if info := ctx.Load(a + offInfo); tracking.IsTagged(info) {
				return fmt.Errorf("rbst: reachable internal node %d tagged at quiescence (info %#x)", key, info)
			}
		}
		if err := t.checkWalk(ctx, pmem.Addr(ctx.Load(a+offLeft)), lo, key-1, depth+1, quiescent, seen); err != nil {
			return err
		}
		return t.checkWalk(ctx, pmem.Addr(ctx.Load(a+offRight)), key, hi, depth+1, quiescent, seen)
	default:
		return fmt.Errorf("rbst: node %#x has invalid kind %d", uint64(a), kind)
	}
}

// checkFrontierEntry is one unexpanded subtree of CheckInvariantsParallel.
type checkFrontierEntry struct {
	a      pmem.Addr
	lo, hi int64
	depth  int
}

// CheckInvariantsParallel is CheckInvariants with disjoint subtrees
// audited concurrently. A breadth-first expansion near the root — which
// audits every expanded node exactly as the serial walk does — grows a
// frontier of independent subtrees until there are a few per worker; the
// engine then audits the frontier subtrees in parallel. Each subtree keeps
// its own duplicate-detection map, which is sound because sibling subtree
// key ranges are disjoint: a cross-subtree duplicate necessarily lands
// outside one subtree's range and fails that range check.
func (t *Tree) CheckInvariantsParallel(eng *recovery.Engine, quiescent bool) error {
	spine := t.pool.NewThread(eng.BaseTID())
	queue := []checkFrontierEntry{{a: t.root, lo: math.MinInt64, hi: math.MaxInt64}}
	var leaves []checkFrontierEntry
	target := 4 * eng.Workers()
	for len(queue) > 0 && len(queue)+len(leaves) < target {
		e := queue[0]
		queue = queue[1:]
		if e.a == pmem.Null {
			return fmt.Errorf("rbst: nil child pointer at depth %d", e.depth)
		}
		if e.depth > 512 {
			return fmt.Errorf("rbst: depth exceeds 512 (cycle?)")
		}
		kind := spine.Load(e.a + offKind)
		key := int64(spine.Load(e.a + offKey))
		if key < e.lo || key > e.hi {
			return fmt.Errorf("rbst: key %d outside range [%d,%d]", key, e.lo, e.hi)
		}
		switch kind {
		case kindLeaf:
			// Leaves are re-audited by the parallel phase (with per-subtree
			// duplicate maps, sound per the range-disjointness argument).
			leaves = append(leaves, e)
		case kindInternal:
			if quiescent {
				if info := spine.Load(e.a + offInfo); tracking.IsTagged(info) {
					return fmt.Errorf("rbst: reachable internal node %d tagged at quiescence (info %#x)", key, info)
				}
			}
			queue = append(queue,
				checkFrontierEntry{a: pmem.Addr(spine.Load(e.a + offLeft)), lo: e.lo, hi: key - 1, depth: e.depth + 1},
				checkFrontierEntry{a: pmem.Addr(spine.Load(e.a + offRight)), lo: key, hi: e.hi, depth: e.depth + 1})
		default:
			return fmt.Errorf("rbst: node %#x has invalid kind %d", uint64(e.a), kind)
		}
	}
	frontier := append(leaves, queue...)
	return eng.For(t.pool, recovery.PhaseVerify, len(frontier),
		func(ctx *pmem.ThreadCtx, i int) error {
			e := frontier[i]
			return t.checkWalk(ctx, e.a, e.lo, e.hi, e.depth, quiescent, map[int64]bool{})
		}, nil)
}
