// Package rlist implements the detectably recoverable sorted linked list of
// Attiya et al. (PPoPP 2022), Algorithms 3 and 4 — Harris's lock-free
// ordered list made detectably recoverable with the Tracking approach.
//
// The list is sorted in increasing key order between two sentinel nodes
// holding -infinity and +infinity. Every node carries an info field that
// points (possibly tagged) to the operation descriptor that last affected
// it; a tagged info field soft-locks the node.
//
//   - A successful Insert(k) replaces curr with a fresh copy newcurr and
//     splices a fresh node newnd before it (pred.next: curr -> newnd, with
//     newnd.next = newcurr). Copying curr guarantees that no pointer value
//     is ever stored into a next field twice, which keeps the replayed
//     CASes of crash recovery idempotent.
//   - A successful Delete(k) swings pred.next from curr to curr.next; curr
//     leaves the list and stays tagged by the deleting operation forever.
//   - Find(k) and unsuccessful updates are read-only. By default they
//     return straight from the gather phase and persist nothing; their
//     recovery functions re-execute them (see the tracking package doc for
//     why that is sound). The engine's tracking.Profile selects the
//     paper's descriptor-publishing read path instead (tracking.Paper), or
//     no read-only optimization at all (tracking.Full), for the ablation
//     experiments.
package rlist

import (
	"fmt"
	"math"

	"repro/internal/pmem"
	"repro/internal/tracking"
)

// Operation type codes stored in descriptors.
const (
	OpInsert uint64 = 1
	OpDelete uint64 = 2
	OpFind   uint64 = 3
)

// Operation results stored in descriptors.
const (
	ResultFalse uint64 = 0
	ResultTrue  uint64 = 1
)

// Node word offsets: key, next, info.
const (
	offKey  = 0
	offNext = pmem.WordSize
	offInfo = 2 * pmem.WordSize
	nodeLen = 3
)

// Header word offsets (the persistent root object of a list).
const (
	hdrHead    = 0
	hdrTable   = pmem.WordSize
	hdrThreads = 2 * pmem.WordSize
	hdrLen     = 3
)

// keyBits converts a key to its stored representation.
func keyBits(k int64) uint64 { return uint64(k) }

// keyOf converts a stored representation back to a key.
func keyOf(b uint64) int64 { return int64(b) }

// List is a detectably recoverable sorted set of int64 keys. Keys must lie
// strictly between math.MinInt64 and math.MaxInt64, which are the sentinel
// keys.
type List struct {
	pool   *pmem.Pool
	eng    *tracking.Engine
	head   pmem.Addr
	header pmem.Addr
}

// New creates an empty list for up to maxThreads threads and records its
// persistent header in the pool's rootSlot, so Attach can find it after a
// crash.
func New(pool *pmem.Pool, maxThreads, rootSlot int) *List {
	root, slotErr := pool.RootSlotChecked(rootSlot)
	if slotErr != nil {
		panic("rlist: " + slotErr.Error())
	}
	eng := tracking.New(pool, maxThreads, "rlist")
	boot := pool.NewThread(0)

	// The sentinels anchor every traversal and head.next is the list's
	// most contended word; private lines keep their flush heat from
	// coupling with whatever else the boot thread allocated.
	tail := boot.AllocLines(1)
	boot.Store(tail+offKey, keyBits(math.MaxInt64))
	head := boot.AllocLines(1)
	boot.Store(head+offKey, keyBits(math.MinInt64))
	boot.Store(head+offNext, uint64(tail))

	header := boot.AllocLocal(hdrLen)
	boot.Store(header+hdrHead, uint64(head))
	boot.Store(header+hdrTable, uint64(eng.TableAddr()))
	boot.Store(header+hdrThreads, uint64(maxThreads))

	boot.PWBRange(pmem.NoSite, tail, nodeLen)
	boot.PWBRange(pmem.NoSite, head, nodeLen)
	boot.PWBRange(pmem.NoSite, header, hdrLen)
	boot.PFence()
	boot.Store(root, uint64(header))
	boot.PWB(pmem.NoSite, root)
	boot.PSync()

	return &List{pool: pool, eng: eng, head: head, header: header}
}

// NewEmbedded creates a list that shares an existing Tracking engine (and
// thus its per-thread recovery table) instead of owning one. Container
// compositions such as the recoverable hash map build many embedded lists
// over a single engine; the caller is responsible for persisting HeadAddr
// somewhere reachable from a root slot.
func NewEmbedded(eng *tracking.Engine, boot *pmem.ThreadCtx) *List {
	// One line holds both sentinels: a bucket's own anchors may share a
	// line with each other, but not with another bucket's, which would
	// couple the flush heat of unrelated buckets.
	anchors := boot.AllocLines(1)
	tail := anchors
	boot.Store(tail+offKey, keyBits(math.MaxInt64))
	head := anchors + nodeLen*pmem.WordSize
	boot.Store(head+offKey, keyBits(math.MinInt64))
	boot.Store(head+offNext, uint64(tail))
	boot.PWBRange(pmem.NoSite, tail, nodeLen)
	boot.PWBRange(pmem.NoSite, head, nodeLen)
	boot.PSync()
	return &List{pool: boot.Pool(), eng: eng, head: head}
}

// AttachEmbedded reconstructs an embedded list from its persistent head
// node address.
func AttachEmbedded(eng *tracking.Engine, pool *pmem.Pool, head pmem.Addr) *List {
	return &List{pool: pool, eng: eng, head: head}
}

// HeadAddr returns the persistent address of the list's head sentinel, the
// root an embedding container must record.
func (l *List) HeadAddr() pmem.Addr { return l.head }

// Engine returns the Tracking engine the list runs on.
func (l *List) Engine() *tracking.Engine { return l.eng }

// HandleWith binds an existing Tracking thread to the list, for containers
// whose per-thread handle spans several embedded lists (the thread's CP/RD
// recovery data is shared, which is correct: a thread executes one
// recoverable operation at a time).
func (l *List) HandleWith(th *tracking.Thread) *Handle {
	return &Handle{list: l, th: th, ctx: th.Ctx()}
}

// Attach reconstructs a List handle from the header recorded in rootSlot,
// typically after pool recovery. Slot index, header address, and header
// fields are all validated before use, so a fresh pool or a slot holding a
// non-pointer value yields a descriptive error rather than an
// out-of-bounds panic mid-parse.
func Attach(pool *pmem.Pool, rootSlot int) (*List, error) {
	root, err := pool.RootSlotChecked(rootSlot)
	if err != nil {
		return nil, fmt.Errorf("rlist: %w", err)
	}
	boot := pool.NewThread(0)
	header := pmem.Addr(boot.Load(root))
	if header == pmem.Null {
		return nil, fmt.Errorf("rlist: root slot %d holds no list", rootSlot)
	}
	if !pool.ValidWords(header, hdrLen) {
		return nil, fmt.Errorf("rlist: root slot %d holds %#x, not a header address",
			rootSlot, uint64(header))
	}
	head := pmem.Addr(boot.Load(header + hdrHead))
	table := pmem.Addr(boot.Load(header + hdrTable))
	threads := int(boot.Load(header + hdrThreads))
	if !pool.ValidWords(head, nodeLen) || !pool.ValidWords(table, 1) || threads <= 0 {
		return nil, fmt.Errorf("rlist: corrupt header at %#x", uint64(header))
	}
	eng := tracking.Attach(pool, table, threads, "rlist")
	return &List{pool: pool, eng: eng, head: head, header: header}, nil
}

// Handle binds a thread context to the list. A Handle is not safe for
// concurrent use; each simulated thread owns one.
type Handle struct {
	list *List
	th   *tracking.Thread
	ctx  *pmem.ThreadCtx
}

// Handle creates the per-thread handle for ctx.
func (l *List) Handle(ctx *pmem.ThreadCtx) *Handle {
	return &Handle{list: l, th: l.eng.Thread(ctx), ctx: ctx}
}

// Invoke performs the system-side invocation step (failure-atomic durable
// CP := 0) for the next operation on this handle. The operations call it
// themselves; a crash-injecting harness calls it explicitly first so it can
// distinguish a crash before the invocation (re-invoke the operation) from
// a crash inside it (call the recovery function). See tracking.Invoke.
func (h *Handle) Invoke() { h.th.Invoke() }

func checkKey(key int64) {
	if key == math.MinInt64 || key == math.MaxInt64 {
		panic("rlist: key collides with a sentinel")
	}
}

// search returns the last node with key < search key (pred), the first
// node with key >= search key (curr), and the info values read on first
// access to each (Algorithm 3, lines 35-44).
func (h *Handle) search(key int64) (pred, curr pmem.Addr, predInfo, currInfo uint64) {
	c := h.ctx
	curr = h.list.head
	currInfo = c.Load(curr + offInfo)
	for keyOf(c.Load(curr+offKey)) < key {
		pred = curr
		predInfo = currInfo
		curr = pmem.Addr(c.Load(curr + offNext))
		currInfo = c.Load(curr + offInfo)
	}
	return pred, curr, predInfo, currInfo
}

// Insert adds key to the set and reports whether it was absent
// (Algorithm 3).
func (h *Handle) Insert(key int64) bool {
	checkKey(key)
	h.th.Invoke()
	c := h.ctx
	// The first attempt that publishes allocates the new nodes and begins
	// the operation; a read-only outcome needs neither.
	var newcurr, newnd pmem.Addr

	for {
		// Gather phase: find the insertion window.
		pred, curr, predInfo, currInfo := h.search(key)

		// Helping phase.
		if tracking.IsTagged(predInfo) {
			h.th.Help(tracking.DescOf(predInfo))
			continue
		}
		if tracking.IsTagged(currInfo) {
			h.th.Help(tracking.DescOf(currInfo))
			continue
		}

		exists := keyOf(c.Load(curr+offKey)) == key
		prof := h.list.eng.Profile()
		if exists && prof == tracking.Default {
			return false
		}
		if newnd == pmem.Null {
			newcurr = c.AllocLocal(nodeLen)
			newnd = c.AllocLocal(nodeLen)
			c.Store(newnd+offKey, keyBits(key))
			c.Store(newnd+offNext, uint64(newcurr))
			h.th.BeginOp()
		}
		var desc pmem.Addr
		if exists {
			// Read-only path: the key is present, Insert behaves
			// like a Find returning false.
			desc = h.th.NewDesc(OpInsert, ResultFalse,
				[]tracking.AffectEntry{{InfoField: curr + offInfo, Observed: currInfo, Untag: true}}, nil, nil)
			if prof == tracking.Paper {
				h.th.SetEarlyResult(desc, ResultFalse)
			}
		} else {
			affect := []tracking.AffectEntry{
				{InfoField: pred + offInfo, Observed: predInfo, Untag: true},
				// curr is replaced by its copy and leaves the list,
				// so it keeps its tag forever.
				{InfoField: curr + offInfo, Observed: currInfo, Untag: false},
			}
			writes := []tracking.WriteEntry{{Field: pred + offNext, Old: uint64(curr), New: uint64(newnd)}}
			news := []pmem.Addr{newnd + offInfo, newcurr + offInfo}
			desc = h.th.NewDesc(OpInsert, ResultTrue, affect, writes, news)
		}
		// newcurr duplicates curr; both new nodes are pre-tagged with
		// this attempt's descriptor (Algorithm 3 lines 19-20).
		c.Store(newcurr+offKey, c.Load(curr+offKey))
		c.Store(newcurr+offNext, c.Load(curr+offNext))
		c.Store(newcurr+offInfo, tracking.Tagged(desc))
		c.Store(newnd+offInfo, tracking.Tagged(desc))

		h.th.Publish(desc,
			tracking.Region{Addr: newcurr, Words: nodeLen},
			tracking.Region{Addr: newnd, Words: nodeLen})
		if exists && prof == tracking.Paper {
			return false
		}
		h.th.Help(desc)
		if h.th.Result(desc) != tracking.Bottom {
			return h.th.Result(desc) == ResultTrue
		}
	}
}

// Delete removes key from the set and reports whether it was present
// (Algorithm 4).
func (h *Handle) Delete(key int64) bool {
	checkKey(key)
	h.th.Invoke()
	c := h.ctx
	begun := false

	for {
		pred, curr, predInfo, currInfo := h.search(key)
		if tracking.IsTagged(predInfo) {
			h.th.Help(tracking.DescOf(predInfo))
			continue
		}
		if tracking.IsTagged(currInfo) {
			h.th.Help(tracking.DescOf(currInfo))
			continue
		}

		missing := keyOf(c.Load(curr+offKey)) != key
		prof := h.list.eng.Profile()
		if missing && prof == tracking.Default {
			return false
		}
		if !begun {
			h.th.BeginOp()
			begun = true
		}
		var desc pmem.Addr
		if missing {
			desc = h.th.NewDesc(OpDelete, ResultFalse,
				[]tracking.AffectEntry{{InfoField: curr + offInfo, Observed: currInfo, Untag: true}}, nil, nil)
			if prof == tracking.Paper {
				h.th.SetEarlyResult(desc, ResultFalse)
			}
		} else {
			affect := []tracking.AffectEntry{
				{InfoField: pred + offInfo, Observed: predInfo, Untag: true},
				// curr leaves the list; it stays tagged forever.
				{InfoField: curr + offInfo, Observed: currInfo, Untag: false},
			}
			// curr is tagged by this operation before its next field
			// could change, so the value read here stays valid for
			// the CAS (any change to curr.next first changes
			// curr.info, failing our tagging CAS).
			succ := c.Load(curr + offNext)
			writes := []tracking.WriteEntry{{Field: pred + offNext, Old: uint64(curr), New: succ}}
			desc = h.th.NewDesc(OpDelete, ResultTrue, affect, writes, nil)
		}
		h.th.Publish(desc)
		if missing && prof == tracking.Paper {
			return false
		}
		h.th.Help(desc)
		if h.th.Result(desc) != tracking.Bottom {
			return h.th.Result(desc) == ResultTrue
		}
	}
}

// Find reports whether key is in the set (Algorithm 4 lines 76-90). It is
// read-only: it never tags nodes or runs Help for itself. By default it
// persists nothing and RecoverFind re-executes it; the tracking.Paper
// profile persists its descriptor and RD so that its response is
// detectable after a crash, as in the paper.
func (h *Handle) Find(key int64) bool {
	checkKey(key)
	h.th.Invoke()
	c := h.ctx
	begun := false
	for {
		_, curr, _, currInfo := h.search(key)
		if tracking.IsTagged(currInfo) {
			h.th.Help(tracking.DescOf(currInfo))
			continue
		}
		found := keyOf(c.Load(curr+offKey)) == key
		prof := h.list.eng.Profile()
		if prof == tracking.Default {
			return found
		}
		if !begun {
			h.th.BeginOp()
			begun = true
		}
		result := ResultFalse
		if found {
			result = ResultTrue
		}
		desc := h.th.NewDesc(OpFind, result,
			[]tracking.AffectEntry{{InfoField: curr + offInfo, Observed: currInfo, Untag: true}}, nil, nil)
		if prof == tracking.Paper {
			h.th.SetEarlyResult(desc, result)
			h.th.Publish(desc)
			return found
		}
		// Ablation path: run the full pipeline even for read-only ops.
		h.th.Publish(desc)
		h.th.Help(desc)
		if h.th.Result(desc) != tracking.Bottom {
			return h.th.Result(desc) == ResultTrue
		}
	}
}

// RecoverInsert is Insert's recovery function: the system calls it, with
// the original argument, when resurrecting a thread that crashed inside
// Insert(key). It finishes or re-invokes the operation and returns its
// response.
func (h *Handle) RecoverInsert(key int64) bool {
	if res, ok := h.Settled(); ok {
		return res
	}
	return h.Insert(key)
}

// RecoverDelete is Delete's recovery function.
func (h *Handle) RecoverDelete(key int64) bool {
	if res, ok := h.Settled(); ok {
		return res
	}
	return h.Delete(key)
}

// RecoverFind is Find's recovery function.
func (h *Handle) RecoverFind(key int64) bool {
	if res, ok := h.Settled(); ok {
		return res
	}
	return h.Find(key)
}

// Settled is the first half of every recovery function: it settles the
// thread's published attempt, if any, and reports its response. ok is
// false when the interrupted operation took no effect and must be
// re-executed.
func (h *Handle) Settled() (result, ok bool) {
	_, res, ok := h.th.Recover()
	return res == ResultTrue, ok
}

// RecoveredOpType reports the descriptor type the thread's recovery data
// points at, for diagnostics. ok is false when there is nothing to recover.
func (h *Handle) RecoveredOpType() (op uint64, ok bool) {
	d, _, ok2 := h.th.Recover()
	if d == pmem.Null {
		return 0, false
	}
	_ = ok2
	return h.th.OpType(d), true
}

// Cursor walks a list's keys in order, one node per Next, so a container
// can interleave the pointer chases of several lists (rhash walks its
// buckets this way). Like Keys it is not linearizable with concurrent
// updates.
type Cursor struct{ curr pmem.Addr }

// Cursor returns a cursor positioned at the list's first key.
func (l *List) Cursor(ctx *pmem.ThreadCtx) Cursor {
	return Cursor{curr: pmem.Addr(ctx.Load(l.head + offNext))}
}

// Next returns the key under the cursor and advances past it; ok is false
// once the cursor has reached the tail sentinel.
func (c *Cursor) Next(ctx *pmem.ThreadCtx) (key int64, ok bool) {
	k := keyOf(ctx.Load(c.curr + offKey))
	if k == math.MaxInt64 {
		return 0, false
	}
	c.curr = pmem.Addr(ctx.Load(c.curr + offNext))
	return k, true
}

// AppendKeys appends the current keys in order (excluding sentinels) to
// out and returns the extended slice. It is a diagnostic and recovery
// helper and is not linearizable with concurrent updates.
func (l *List) AppendKeys(ctx *pmem.ThreadCtx, out []int64) []int64 {
	for c := l.Cursor(ctx); ; {
		k, ok := c.Next(ctx)
		if !ok {
			return out
		}
		out = append(out, k)
	}
}

// Keys returns the current keys in order; see AppendKeys.
func (l *List) Keys(ctx *pmem.ThreadCtx) []int64 { return l.AppendKeys(ctx, nil) }

// CheckInvariants verifies structural sanity: strictly increasing keys from
// head to tail, termination within the pool's allocation count, and no
// node (other than removed ones) left tagged when the list is quiescent.
func (l *List) CheckInvariants(ctx *pmem.ThreadCtx, quiescent bool) error {
	maxSteps := l.pool.AllocatedWords() // generous upper bound on nodes
	prev := int64(math.MinInt64)
	curr := l.head
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return fmt.Errorf("rlist: traversal exceeded %d steps (cycle?)", maxSteps)
		}
		k := keyOf(ctx.Load(curr + offKey))
		if curr != l.head && k <= prev {
			return fmt.Errorf("rlist: keys out of order: %d after %d", k, prev)
		}
		if quiescent {
			if info := ctx.Load(curr + offInfo); tracking.IsTagged(info) {
				return fmt.Errorf("rlist: reachable node %d tagged at quiescence (info %#x)", k, info)
			}
		}
		if k == math.MaxInt64 {
			return nil
		}
		prev = k
		curr = pmem.Addr(ctx.Load(curr + offNext))
		if curr == pmem.Null {
			return fmt.Errorf("rlist: next pointer fell off the list after key %d", prev)
		}
	}
}
