package sweep

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/capsules"
	"repro/internal/chaos"
	"repro/internal/pmem"
	"repro/internal/rbst"
	"repro/internal/rexchanger"
	"repro/internal/rhash"
	"repro/internal/rlist"
	"repro/internal/rmm"
	"repro/internal/rqueue"
	"repro/internal/rstack"
)

// Adapter connects one recoverable structure to the chaos and sweep
// harnesses: how to build it, how to drive it, and how to audit a finished
// run for detectable exactly-once semantics.
type Adapter struct {
	// Name is the registry key ("rlist", "rqueue", ...).
	Name string
	// SitePrefix selects the structure's pwb code lines among the pool's
	// registered site labels: the sweep enumerates exactly the sites whose
	// label starts with SitePrefix + "/".
	SitePrefix string
	// MinThreads is the worker count of the structure's sweep tasks (in
	// lockstep when above one) and the smallest the randomized mode runs:
	// the exchanger needs a partner, and Capsules-Opt's marked-node
	// persist needs a second thread's delete; everything else runs
	// single-threaded.
	MinThreads int
	// Setup creates a fresh instance in pool with its header in root slot
	// 0, sized for thread ids in [0, maxThreads).
	Setup func(pool *pmem.Pool, maxThreads int)
	// Reattach rebuilds the structure's per-thread handles after pool
	// recovery (or at run start).
	Reattach func(pool *pmem.Pool) (chaos.ThreadFactory, error)
	// GenOp produces thread tid's i-th operation of the workload.
	GenOp func(rng *rand.Rand, tid, i int) chaos.Op
	// Validate audits a finished run: structure invariants plus the
	// exactly-once oracle for the structure's semantics (and, for sets, a
	// linearizability pass when the history fits the checker's bounds).
	Validate func(pool *pmem.Pool, res *chaos.Result) error
	// Scripted maps site labels that profiled workloads cannot reach to
	// deterministic provocation scenarios that do (see provoke.go). The
	// sweep crashes at such a site through its scenario instead of a
	// generated workload.
	Scripted map[string]func(pool *pmem.Pool, p *Provoker) error
	// Unreachable maps registered site labels that no execution of this
	// structure can ever hit to the structural reason why; the sweep
	// reports them instead of counting them as coverage gaps.
	Unreachable map[string]string
}

// adapterRegistry is populated at init time and read-only afterwards.
var adapterRegistry = map[string]*Adapter{}

// RegisterAdapter adds an adapter to the registry. It panics on a
// duplicate name; adapters are registered from init functions only.
func RegisterAdapter(a *Adapter) {
	if _, dup := adapterRegistry[a.Name]; dup {
		panic("sweep: duplicate adapter " + a.Name)
	}
	adapterRegistry[a.Name] = a
}

// AdapterByName returns the registered adapter called name.
func AdapterByName(name string) (*Adapter, error) {
	a, ok := adapterRegistry[name]
	if !ok {
		return nil, fmt.Errorf("sweep: unknown structure %q (have %v)", name, AdapterNames())
	}
	return a, nil
}

// AdapterNames returns the registered adapter names, sorted.
func AdapterNames() []string {
	out := make([]string, 0, len(adapterRegistry))
	for n := range adapterRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// b2u converts a boolean response to the uint64 the harness records.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// setOps is the common face of every set structure in this repository
// (rlist, rbst, rhash, capsules); the compiler checks each Handle against
// it structurally.
type setOps interface {
	Invoke()
	Insert(key int64) bool
	Delete(key int64) bool
	Find(key int64) bool
	RecoverInsert(key int64) bool
	RecoverDelete(key int64) bool
	RecoverFind(key int64) bool
}

// setThread adapts a setOps handle to the harness Thread interface.
type setThread struct{ h setOps }

func (s setThread) Invoke() { s.h.Invoke() }

func (s setThread) Run(op chaos.Op) uint64 {
	switch op.Kind {
	case chaos.KindInsert:
		return b2u(s.h.Insert(op.Key))
	case chaos.KindDelete:
		return b2u(s.h.Delete(op.Key))
	default:
		return b2u(s.h.Find(op.Key))
	}
}

func (s setThread) Recover(op chaos.Op) uint64 {
	switch op.Kind {
	case chaos.KindInsert:
		return b2u(s.h.RecoverInsert(op.Key))
	case chaos.KindDelete:
		return b2u(s.h.RecoverDelete(op.Key))
	default:
		return b2u(s.h.RecoverFind(op.Key))
	}
}

// view is one attached instance of a structure as the harness paths see
// it: Reattach, Validate and the scripted scenarios all derive from it.
type view struct {
	// thread builds thread tid's harness handle on a fresh context.
	thread func(tid int) chaos.Thread
	// contents lists what the structure holds: a set's keys ascending, a
	// queue's values oldest first, a stack's values top first.
	contents func(*pmem.ThreadCtx) []int64
	// check audits the structure's quiescent invariants.
	check func(*pmem.ThreadCtx) error
}

// attachFunc attaches the structure whose header is in root slot 0.
type attachFunc func(pool *pmem.Pool) (view, error)

// reattach is Adapter.Reattach over the attached view.
func (attach attachFunc) reattach(pool *pmem.Pool) (chaos.ThreadFactory, error) {
	v, err := attach(pool)
	if err != nil {
		return nil, err
	}
	return func(tid int) (chaos.Thread, error) { return v.thread(tid), nil }, nil
}

// validate is Adapter.Validate over the attached view: the structure's
// quiescent invariants, then oracle over the run's history and the final
// contents.
func (attach attachFunc) validate(oracle func(logs [][]chaos.OpRecord, contents []int64) error) func(*pmem.Pool, *chaos.Result) error {
	return func(pool *pmem.Pool, res *chaos.Result) error {
		v, err := attach(pool)
		if err != nil {
			return err
		}
		boot := pool.NewThread(0)
		if err := v.check(boot); err != nil {
			return err
		}
		return oracle(res.Logs, v.contents(boot))
	}
}

// setView is the view of an attached set structure.
func setView[H setOps](pool *pmem.Pool, handle func(*pmem.ThreadCtx) H,
	keys func(*pmem.ThreadCtx) []int64, check func(*pmem.ThreadCtx) error) view {
	return view{
		thread:   func(tid int) chaos.Thread { return setThread{h: handle(pool.NewThread(tid))} },
		contents: keys,
		check:    check,
	}
}

// setAdapter describes a set structure: the set workload over keys
// [1, keyRange], and Reattach, Validate and the scripted scenarios (the
// rows provoke.go holds for prefix) derived from attach. Validate checks
// the invariants, the exactly-once alternation oracle against the final
// keys, and linearizability when the history fits the checker's bounds.
func setAdapter(name, prefix string, keyRange int64,
	setup func(pool *pmem.Pool, maxThreads int), attach attachFunc) *Adapter {
	return &Adapter{
		Name: name, SitePrefix: prefix, MinThreads: 1,
		Setup: setup, Reattach: attach.reattach,
		GenOp: chaos.SetGenOp(keyRange),
		Validate: attach.validate(func(logs [][]chaos.OpRecord, keys []int64) error {
			if err := chaos.CheckSetAlternation(logs, chaos.SetClassifier, keys); err != nil {
				return err
			}
			if err := chaos.CheckSetLinearizable(logs); err != nil {
				return err
			}
			if len(logs) == 1 {
				return chaos.CheckSetSequential(logs[0])
			}
			return nil
		}),
		Scripted: scripted(prefix, attach),
	}
}

// conv converts between a value structure's values and view.contents.
func conv[To, From int64 | uint64](xs []From) []To {
	out := make([]To, len(xs))
	for i, x := range xs {
		out[i] = To(x)
	}
	return out
}

// uniqueValue encodes a value no two (thread, op-index) pairs share, small
// enough for every structure's value space.
func uniqueValue(tid, i int) int64 { return int64(tid)<<32 | int64(i+1) }

func init() {
	RegisterAdapter(setAdapter("rlist", "rlist", 8,
		func(pool *pmem.Pool, maxThreads int) { rlist.New(pool, maxThreads, 0) },
		func(pool *pmem.Pool) (view, error) {
			l, err := rlist.Attach(pool, 0)
			if err != nil {
				return view{}, err
			}
			return setView(pool, l.Handle, l.Keys,
				func(c *pmem.ThreadCtx) error { return l.CheckInvariants(c, true) }), nil
		}))

	RegisterAdapter(setAdapter("rbst", "rbst", 8,
		func(pool *pmem.Pool, maxThreads int) { rbst.New(pool, maxThreads, 0) },
		func(pool *pmem.Pool) (view, error) {
			tr, err := rbst.Attach(pool, 0)
			if err != nil {
				return view{}, err
			}
			return setView(pool, tr.Handle, tr.Keys,
				func(c *pmem.ThreadCtx) error { return tr.CheckInvariants(c, true) }), nil
		}))

	RegisterAdapter(setAdapter("rhash", "rhash", 16,
		func(pool *pmem.Pool, maxThreads int) { rhash.New(pool, 4, maxThreads, 0) },
		func(pool *pmem.Pool) (view, error) {
			m, err := rhash.Attach(pool, 0)
			if err != nil {
				return view{}, err
			}
			return setView(pool, m.Handle, m.Keys,
				func(c *pmem.ThreadCtx) error { return m.CheckInvariants(c, true) }), nil
		}))

	// Capsules flushes a deleted node's marked next word under
	// pwb-traverse-read, Capsules-Opt under pwb-marked-node. Capsules-Opt
	// reaches that site only when a traversal meets a node another thread
	// has marked but not yet unlinked, so its tasks run two threads.
	for _, v := range []struct {
		name, prefix string
		variant      capsules.Variant
		minThreads   int
		unreachable  map[string]string
	}{
		{"capsules", "caps", capsules.VariantFull, 1, map[string]string{
			"caps/pwb-marked-node":  "VariantFull flushes every traversed next word, the marked one included, under pwb-traverse-read",
			"caps/pwb-neighborhood": "persistNeighborhood returns at once unless the variant is Capsules-Opt",
		}},
		{"capsules-opt", "capsopt", capsules.VariantOpt, 2, map[string]string{
			"capsopt/pwb-traverse-read": "traversal reads are flushed only by VariantFull",
		}},
	} {
		variant := v.variant
		a := setAdapter(v.name, v.prefix, 8,
			func(pool *pmem.Pool, maxThreads int) { capsules.New(pool, variant, maxThreads, 0) },
			func(pool *pmem.Pool) (view, error) {
				l, err := capsules.Attach(pool, variant, 0)
				if err != nil {
					return view{}, err
				}
				return setView(pool, l.Handle, l.Keys, l.CheckInvariants), nil
			})
		a.MinThreads, a.Unreachable = v.minThreads, v.unreachable
		RegisterAdapter(a)
	}

	queue := attachFunc(func(pool *pmem.Pool) (view, error) {
		q, err := rqueue.Attach(pool, 0)
		if err != nil {
			return view{}, err
		}
		return view{
			thread:   func(tid int) chaos.Thread { return queueThread{h: q.Handle(pool.NewThread(tid))} },
			contents: func(c *pmem.ThreadCtx) []int64 { return conv[int64](q.Drain(c)) },
			check:    func(c *pmem.ThreadCtx) error { return q.CheckInvariants(c, true) },
		}, nil
	})
	RegisterAdapter(&Adapter{
		Name: "rqueue", SitePrefix: "rqueue", MinThreads: 1,
		Setup:    func(pool *pmem.Pool, maxThreads int) { rqueue.New(pool, maxThreads, 0) },
		Reattach: queue.reattach,
		GenOp: func(rng *rand.Rand, tid, i int) chaos.Op {
			if rng.Intn(2) == 0 {
				return chaos.Op{Kind: chaos.KindEnqueue, Key: uniqueValue(tid, i)}
			}
			return chaos.Op{Kind: chaos.KindDequeue}
		},
		Validate: queue.validate(func(logs [][]chaos.OpRecord, vals []int64) error {
			if err := chaos.CheckQueueExactlyOnce(logs, conv[uint64](vals), rqueue.Empty); err != nil {
				return err
			}
			if len(logs) == 1 {
				return chaos.CheckQueueSequential(logs[0], rqueue.Empty)
			}
			return nil
		}),
		Scripted: scripted("rqueue", queue),
		Unreachable: map[string]string{
			"rqueue/pwb-info-backtrack": "every rqueue operation's AffectSet has a single entry, so its tagging loop can never fail at index >= 1",
		},
	})

	stack := attachFunc(func(pool *pmem.Pool) (view, error) {
		s, err := rstack.Attach(pool, 0)
		if err != nil {
			return view{}, err
		}
		return view{
			thread:   func(tid int) chaos.Thread { return stackThread{h: s.Handle(pool.NewThread(tid))} },
			contents: func(c *pmem.ThreadCtx) []int64 { return conv[int64](s.Snapshot(c)) },
			check:    func(c *pmem.ThreadCtx) error { return s.CheckInvariants(c, true) },
		}, nil
	})
	RegisterAdapter(&Adapter{
		Name: "rstack", SitePrefix: "rstack", MinThreads: 1,
		Setup:    func(pool *pmem.Pool, maxThreads int) { rstack.New(pool, maxThreads, 0) },
		Reattach: stack.reattach,
		GenOp: func(rng *rand.Rand, tid, i int) chaos.Op {
			if rng.Intn(2) == 0 {
				return chaos.Op{Kind: chaos.KindPush, Key: uniqueValue(tid, i)}
			}
			return chaos.Op{Kind: chaos.KindPop}
		},
		Validate: stack.validate(func(logs [][]chaos.OpRecord, vals []int64) error {
			if err := chaos.CheckStackExactlyOnce(logs, conv[uint64](vals), rstack.Empty); err != nil {
				return err
			}
			if len(logs) == 1 {
				return chaos.CheckStackSequential(logs[0], rstack.Empty)
			}
			return nil
		}),
		Scripted: scripted("rstack", stack),
		Unreachable: map[string]string{
			"rstack/pwb-info-backtrack": "every rstack operation's AffectSet has a single entry, so its tagging loop can never fail at index >= 1",
		},
	})

	RegisterAdapter(&Adapter{
		Name: "rexchanger", SitePrefix: "rexch", MinThreads: 2,
		Setup: func(pool *pmem.Pool, maxThreads int) { rexchanger.New(pool, maxThreads, 0) },
		Reattach: func(pool *pmem.Pool) (chaos.ThreadFactory, error) {
			ex, err := rexchanger.Attach(pool, 0)
			if err != nil {
				return nil, err
			}
			return func(tid int) (chaos.Thread, error) {
				return exchThread{h: ex.Handle(pool.NewThread(tid))}, nil
			}, nil
		},
		GenOp: func(rng *rand.Rand, tid, i int) chaos.Op {
			return chaos.Op{Kind: chaos.KindExchange, Key: uniqueValue(tid, i)}
		},
		Validate: func(pool *pmem.Pool, res *chaos.Result) error {
			return chaos.CheckExchangerPairing(res.Logs, rexchanger.TimedOut)
		},
	})

	RegisterAdapter(&Adapter{
		Name: "rmm", SitePrefix: "rmm", MinThreads: 1,
		Setup:    rmmSetup,
		Reattach: rmmReattach,
		GenOp:    rmmGenOp,
		Validate: func(pool *pmem.Pool, res *chaos.Result) error {
			a, err := rmm.Attach(pool, 0)
			if err != nil {
				return err
			}
			return rmmValidate(pool, a, res)
		},
	})
}

// queueThread adapts an rqueue handle to the harness Thread interface: the
// enqueue response is recorded as 1 (an acknowledgment), the dequeue
// response is the dequeued value or rqueue.Empty.
type queueThread struct{ h *rqueue.Handle }

func (q queueThread) Invoke() { q.h.Invoke() }

func (q queueThread) Run(op chaos.Op) uint64 {
	if op.Kind == chaos.KindEnqueue {
		q.h.Enqueue(uint64(op.Key))
		return 1
	}
	v, _ := q.h.Dequeue()
	return v
}

func (q queueThread) Recover(op chaos.Op) uint64 {
	if op.Kind == chaos.KindEnqueue {
		q.h.RecoverEnqueue(uint64(op.Key))
		return 1
	}
	v, _ := q.h.RecoverDequeue()
	return v
}

// stackThread adapts an rstack handle to the harness Thread interface,
// mirroring queueThread.
type stackThread struct{ h *rstack.Handle }

func (s stackThread) Invoke() { s.h.Invoke() }

func (s stackThread) Run(op chaos.Op) uint64 {
	if op.Kind == chaos.KindPush {
		s.h.Push(uint64(op.Key))
		return 1
	}
	v, _ := s.h.Pop()
	return v
}

func (s stackThread) Recover(op chaos.Op) uint64 {
	if op.Kind == chaos.KindPush {
		s.h.RecoverPush(uint64(op.Key))
		return 1
	}
	v, _ := s.h.RecoverPop()
	return v
}

// exchSpins is the slot/partner inspection budget of one exchange attempt
// in the harness workload: enough for a scheduled partner to arrive, small
// enough that an unmatched final operation resolves quickly.
const exchSpins = 300

// exchThread adapts an rexchanger handle to the harness Thread interface:
// the response is the partner's value or rexchanger.TimedOut.
type exchThread struct{ h *rexchanger.Handle }

func (e exchThread) Invoke() { e.h.Invoke() }

func (e exchThread) Run(op chaos.Op) uint64 {
	v, _ := e.h.Exchange(uint64(op.Key), exchSpins)
	return v
}

func (e exchThread) Recover(op chaos.Op) uint64 {
	v, _ := e.h.RecoverExchange(uint64(op.Key), exchSpins)
	return v
}

// The rmm adapter sweeps the allocator itself: each thread owns a table
// of persistent slots, KindAlloc fills a slot with a freshly allocated
// block and KindFree empties it, and validation replays the slots as the
// reachable set through RecoverGC. The slot protocol carries the
// detectability argument: a block's bitmap bit is durable before its
// address is published to a slot, and a slot is durably cleared before
// its block is freed, so a crash anywhere leaves at worst a leaked block
// (bit set, no slot) — never a block owned twice. The workload's opening
// allocation ramp outgrows the first chunk, putting the grow path's
// persist points (rmm/pwb-chunk-dir, rmm/pwb-chunk-count) in the profile
// so the sweep crashes mid-grow.
const (
	rmmSlotSite       = "rmm/pwb-slot"
	rmmSlotsPerThread = 48
	rmmChunkBlocks    = 16
	rmmBlockWords     = 4
	rmmMaxChunks      = 32
	rmmRampOps        = 24 // > rmmChunkBlocks: forces a grow in the profile
	// rmmFreeFailed is the log sentinel for a Free the allocator rejected
	// (double free / bogus address) — validation turns it into a violation.
	rmmFreeFailed = ^uint64(0)
)

// rmmSetup creates the growable allocator (root slot 0) and the
// per-thread slot tables: base address in root slot 1, total slot count
// in root slot 2. Bootstrap persists use pmem.NoSite so the profile sees
// only workload-reachable hits.
func rmmSetup(pool *pmem.Pool, maxThreads int) {
	rmm.NewGrowable(pool, rmmBlockWords, rmmChunkBlocks, rmmMaxChunks, 0)
	boot := pool.NewThread(0)
	pool.RegisterSite(rmmSlotSite)
	nSlots := maxThreads * rmmSlotsPerThread
	base := boot.AllocWords(nSlots)
	boot.Store(pool.RootSlot(1), uint64(base))
	boot.Store(pool.RootSlot(2), uint64(nSlots))
	boot.PWB(pmem.NoSite, pool.RootSlot(1))
	boot.PWB(pmem.NoSite, pool.RootSlot(2))
	boot.PSync()
}

// rmmReattach rebuilds the allocator and thread handles after recovery.
func rmmReattach(pool *pmem.Pool) (chaos.ThreadFactory, error) {
	a, err := rmm.Attach(pool, 0)
	if err != nil {
		return nil, err
	}
	base := pmem.Addr(pool.NewThread(0).Load(pool.RootSlot(1)))
	site := pool.RegisterSite(rmmSlotSite)
	return func(tid int) (chaos.Thread, error) {
		ctx := pool.NewThread(tid)
		return rmmThread{
			h: a.Handle(ctx), ctx: ctx, site: site,
			slots: base + pmem.Addr(tid*rmmSlotsPerThread*pmem.WordSize),
		}, nil
	}, nil
}

// rmmGenOp opens with a deterministic allocation ramp (slots 0..23, which
// overflows the 16-block first chunk and drives a grow), then settles
// into alloc-heavy random churn over the thread's slots.
func rmmGenOp(rng *rand.Rand, tid, i int) chaos.Op {
	if i < rmmRampOps {
		return chaos.Op{Kind: chaos.KindAlloc, Key: int64(i % rmmSlotsPerThread)}
	}
	kind := chaos.KindAlloc
	if rng.Intn(10) < 3 {
		kind = chaos.KindFree
	}
	return chaos.Op{Kind: kind, Key: int64(rng.Intn(rmmSlotsPerThread))}
}

// rmmThread adapts an allocator handle plus its persistent slot table to
// the harness Thread interface. Alloc records the block address it
// published (or the occupying block's address when the slot was busy, 0
// when the arena was exhausted); Free records 1 (freed, or already
// empty) or the rmmFreeFailed sentinel.
type rmmThread struct {
	h     *rmm.Handle
	ctx   *pmem.ThreadCtx
	slots pmem.Addr
	site  pmem.Site
}

// Invoke is a no-op: the slot protocol itself records enough state to
// recover every operation, so there is no separate invocation step.
func (t rmmThread) Invoke() {}

// slotAddr returns the persistent address of the thread's slot s.
func (t rmmThread) slotAddr(s int64) pmem.Addr {
	return t.slots + pmem.Addr(int(s)*pmem.WordSize)
}

func (t rmmThread) Run(op chaos.Op) uint64 {
	slot := t.slotAddr(op.Key)
	cur := t.ctx.Load(slot)
	if op.Kind == chaos.KindAlloc {
		if cur != 0 {
			return cur // busy: the slot already holds a block
		}
		b := t.h.Alloc()
		if b == pmem.Null {
			return 0 // arena exhausted
		}
		// The block's bitmap bit is already durable (Alloc's contract);
		// publishing its address second means a crash between the two
		// leaks the block instead of double-owning it.
		t.ctx.Store(slot, uint64(b))
		t.ctx.PWB(t.site, slot)
		t.ctx.PSync()
		return uint64(b)
	}
	if cur == 0 {
		return 1 // already empty
	}
	// Durably disown the block before freeing it: once the bit clears,
	// another thread may re-allocate the block, so the slot must already
	// be empty at that point or recovery could free it twice.
	t.ctx.Store(slot, 0)
	t.ctx.PWB(t.site, slot)
	t.ctx.PSync()
	if err := t.h.Free(pmem.Addr(cur)); err != nil {
		return rmmFreeFailed
	}
	return 1
}

func (t rmmThread) Recover(op chaos.Op) uint64 {
	slot := t.slotAddr(op.Key)
	cur := t.ctx.Load(slot)
	if op.Kind == chaos.KindAlloc {
		if cur != 0 {
			return cur // the publish committed (or the slot was busy all along)
		}
		// No published block: either the crash hit before the bitmap bit
		// committed (block free again) or between bit and publish (block
		// leaked; RecoverGC reclaims it). Re-running is safe either way.
		return t.Run(op)
	}
	if cur == 0 {
		return 1 // the disown committed; at worst the block leaked
	}
	// The slot-clear never committed, so the free never started on the
	// durable side: re-run the whole free.
	return t.Run(op)
}

// rmmValidate audits a finished allocator run: every occupied slot must
// hold a distinct valid block, RecoverGC over the slots-as-roots must
// reclaim all crash leaks without restoring a single mark (a restored
// mark would mean a published block whose bitmap bit never committed —
// a broken persist order), and the rebuilt allocator must satisfy its
// volatile/durable invariants.
func rmmValidate(pool *pmem.Pool, a *rmm.Allocator, res *chaos.Result) error {
	boot := pool.NewThread(0)
	for tidIdx, log := range res.Logs {
		for i, rec := range log {
			if rec.Result == rmmFreeFailed {
				return fmt.Errorf("thread %d op %d: allocator rejected a tracked free (double free or bogus address)", tidIdx+1, i)
			}
		}
	}
	base := pmem.Addr(boot.Load(pool.RootSlot(1)))
	nSlots := int(boot.Load(pool.RootSlot(2)))
	owner := make(map[pmem.Addr]int, nSlots)
	live := make([]pmem.Addr, 0, nSlots)
	for s := 0; s < nSlots; s++ {
		v := boot.Load(base + pmem.Addr(s*pmem.WordSize))
		if v == 0 {
			continue
		}
		b := pmem.Addr(v)
		if !a.Owns(b) {
			return fmt.Errorf("slot %d holds %#x, not a block address", s, v)
		}
		if prev, dup := owner[b]; dup {
			return fmt.Errorf("block %#x owned by slots %d and %d (double allocation)", v, prev, s)
		}
		owner[b] = s
		live = append(live, b)
	}
	err := a.RecoverGC(boot, func(visit func(pmem.Addr) error) error {
		for _, b := range live {
			if err := visit(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	st := a.Stats()
	if st.MarksRestored != 0 {
		return fmt.Errorf("%d published blocks had no durable bitmap bit (persist order broken)", st.MarksRestored)
	}
	if inUse := a.InUse(boot); inUse != len(live) {
		return fmt.Errorf("post-GC in-use %d, want %d live slots (leak reclamation failed)", inUse, len(live))
	}
	return a.CheckInvariants(boot)
}
