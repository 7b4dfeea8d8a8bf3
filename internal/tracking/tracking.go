package tracking

import (
	"fmt"

	"repro/internal/pmem"
)

// Bottom is the "no result yet" sentinel (⊥). Operation responses must not
// use this value.
const Bottom = ^uint64(0)

// Tagged returns the tagged version of a descriptor reference: installing
// it in a node's info field soft-locks the node for the descriptor's
// operation. Tagging sets the least significant bit, which is always clear
// in the 8-aligned descriptor addresses.
func Tagged(d pmem.Addr) uint64 { return uint64(d) | 1 }

// Untagged returns the untagged version of a descriptor reference.
func Untagged(d pmem.Addr) uint64 { return uint64(d) &^ 1 }

// IsTagged reports whether an info-field value is tagged.
func IsTagged(v uint64) bool { return v&1 == 1 }

// DescOf extracts the descriptor address from an info-field value by
// masking the tag bit.
func DescOf(v uint64) pmem.Addr { return pmem.Addr(v &^ 1) }

// AffectEntry is one element of an operation's AffectSet.
type AffectEntry struct {
	// InfoField is the address of the node's info word.
	InfoField pmem.Addr
	// Observed is the info value read during the gather phase; the
	// tagging CAS uses it as the expected value.
	Observed uint64
	// Untag indicates the node remains in the data structure after the
	// operation and must be untagged during cleanup. Nodes the operation
	// removes stay tagged forever (Figure 1c: a deleted node's info
	// keeps pointing, tagged, at the deleting operation's descriptor).
	Untag bool
}

// WriteEntry is one element of an operation's WriteSet: field changes from
// Old to New via CAS. Old values never recur (the original implementation
// never stores the same value into a shared variable twice), which makes
// replaying the CAS idempotent.
type WriteEntry struct {
	Field    pmem.Addr
	Old, New uint64
}

// Region describes a freshly allocated object to persist before the
// operation is published (the NewSet part of pbarrier in Algorithms 3-6).
type Region struct {
	Addr  pmem.Addr
	Words int
}

// Descriptor word layout:
//
//	0: opType
//	1: result (Bottom until the operation takes effect)
//	2: pendingResult (the response to install on success)
//	3: packed counts: nAffect | nWrite<<20 | nNew<<40
//	4 + 2i:   affect[i] info-field address, bit 0 = Untag flag
//	5 + 2i:   affect[i] observed info value
//	then 3 words per write entry (field, old, new)
//	then 1 word per NewSet info-field address
const (
	descOpType  = 0
	descResult  = 1
	descPending = 2
	descCounts  = 3
	descEntries = 4
)

// Profile selects which of the engine's persistence paths the operations
// run. It is an ablation axis: the paper-figure experiments pin Paper, and
// New and Attach select Default.
type Profile uint8

// The profiles. Paper is the zero value because it is Algorithm 1 as the
// paper measures it.
const (
	// Paper is Algorithm 1 with its read-only optimization (Section 3,
	// code in red): BeginOp persists RD := Null and CP := 1 before the
	// operation's first Publish, and the list's read-only outcomes publish
	// a descriptor carrying their early result.
	Paper Profile = iota
	// Default persists what detectability needs and nothing more: BeginOp
	// does nothing (Publish's one failure-atomic checkpoint store gives
	// its guarantee), and read-only outcomes persist nothing and recover
	// by re-execution.
	Default
	// Full is Paper without the read-only optimization: the list's
	// read-only outcomes run the full tagging, result and cleanup
	// pipeline, like updates.
	Full
)

// String names the profile as the ablation experiments label it.
func (p Profile) String() string {
	switch p {
	case Paper:
		return "paper"
	case Default:
		return "default"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Profile(%d)", uint8(p))
	}
}

// Engine shares the per-data-structure state of the Tracking transform: the
// pool, the persistent per-thread recovery table (one checkpoint word per
// thread), the profile, and the registered persistence sites.
type Engine struct {
	pool       *pmem.Pool
	table      pmem.Addr // maxThreads cache lines; word 0 of line t is thread t's checkpoint
	maxThreads int
	profile    Profile
	sites      engineSites
}

type engineSites struct {
	cp      pmem.Site // pwb(CP) — thread-private checkpoint word
	rd      pmem.Site // pwb(RD) — thread-private checkpoint word
	publish pmem.Site // pbarrier(*opInfo, NewSet) — freshly allocated data
	tag     pmem.Site // pwb(nd→info) after the tagging CAS (Alg. 2 line 36)
	back    pmem.Site // pwb(nd→info) in the backtrack phase (line 42)
	update  pmem.Site // pwb(updated field) (line 51)
	result  pmem.Site // pwb(opInfo→result) (line 53)
	cleanup pmem.Site // pwb(nd→info) in the cleanup phase (line 57)
	// observed is a helper re-persisting a tag another helper installed:
	// Help's tagging CAS finds res == tag and still flushes the word,
	// since the installer's own pwb may not have executed yet. Never
	// recorded in crash-free solo runs (no helping happens), which keeps
	// the other sites' strict profiles unchanged.
	observed pmem.Site
}

func registerSites(pool *pmem.Pool, prefix string) engineSites {
	return engineSites{
		cp:       pool.RegisterSite(prefix + "/pwb-CP"),
		rd:       pool.RegisterSite(prefix + "/pwb-RD"),
		publish:  pool.RegisterSite(prefix + "/pwb-desc+new"),
		tag:      pool.RegisterSite(prefix + "/pwb-info-tag"),
		back:     pool.RegisterSite(prefix + "/pwb-info-backtrack"),
		update:   pool.RegisterSite(prefix + "/pwb-update-field"),
		result:   pool.RegisterSite(prefix + "/pwb-result"),
		cleanup:  pool.RegisterSite(prefix + "/pwb-info-cleanup"),
		observed: pool.RegisterSite(prefix + "/pwb-info-observed"),
	}
}

// New creates an Engine with a fresh recovery table for maxThreads threads
// and persists the table. The caller should store TableAddr in a root slot
// so recovery can reattach.
func New(pool *pmem.Pool, maxThreads int, sitePrefix string) *Engine {
	if maxThreads <= 0 {
		panic("tracking: maxThreads must be positive")
	}
	e := &Engine{pool: pool, maxThreads: maxThreads, profile: Default, sites: registerSites(pool, sitePrefix)}
	boot := pool.NewThread(0)
	e.table = boot.AllocLines(maxThreads)
	boot.PWBRange(pmem.NoSite, e.table, maxThreads*pmem.LineWords)
	boot.PSync()
	return e
}

// Attach reconstructs an Engine over an existing recovery table, e.g. after
// a crash and pool recovery.
func Attach(pool *pmem.Pool, table pmem.Addr, maxThreads int, sitePrefix string) *Engine {
	return &Engine{pool: pool, table: table, maxThreads: maxThreads, profile: Default, sites: registerSites(pool, sitePrefix)}
}

// TableAddr returns the persistent address of the recovery table. Line t
// of the table is thread t's recovery line; its word 0 is the thread's
// checkpoint word (see Thread).
func (e *Engine) TableAddr() pmem.Addr { return e.table }

// SetProfile selects the engine's profile (see Profile). Set it before
// handing out threads; it is exposed for the paper-figure and ablation
// experiments.
func (e *Engine) SetProfile(p Profile) { e.profile = p }

// Profile returns the engine's profile.
func (e *Engine) Profile() Profile { return e.profile }

// HelpInFlight settles every thread's published, unfinished operation
// (a checkpoint naming a descriptor whose result is still Bottom) by running
// Help on it with ctx, so that afterwards each such operation has either
// taken effect or never can. Recovery code that reconciles state kept
// outside the structure against it — the kvstore's slot table against its
// index — calls it first: an operation frozen mid-tagging would otherwise
// be completed later by the first operation to meet its tag, after the
// reconciliation already judged it not to have happened. Operations whose
// result is recorded are skipped, so a quiescent image costs only loads.
func (e *Engine) HelpInFlight(ctx *pmem.ThreadCtx) {
	for tid := 0; tid < e.maxThreads; tid++ {
		t := &Thread{eng: e, ctx: ctx, ck: e.checkpoint(tid)}
		if d, ok := t.published(); ok && t.Result(d) == Bottom {
			t.Help(d)
		}
	}
}

// checkpoint returns the address of thread tid's checkpoint word.
func (e *Engine) checkpoint(tid int) pmem.Addr {
	return e.table + pmem.Addr(tid*pmem.LineBytes)
}

// Thread binds a pmem thread context to the engine. The context's thread id
// selects the CP/RD line in the recovery table.
func (e *Engine) Thread(ctx *pmem.ThreadCtx) *Thread {
	if ctx.TID() < 0 || ctx.TID() >= e.maxThreads {
		panic(fmt.Sprintf("tracking: thread id %d out of range [0,%d)", ctx.TID(), e.maxThreads))
	}
	return &Thread{eng: e, ctx: ctx, ck: e.checkpoint(ctx.TID())}
}

// Thread is the per-thread face of the engine. It is not safe for
// concurrent use; each simulated thread owns one.
type Thread struct {
	eng *Engine
	ctx *pmem.ThreadCtx
	// ck is the thread's checkpoint word, the paper's CPq and RDq packed
	// into one failure-atomic word: 0 (CP = 0), or RD | 1 (CP = 1; RD is
	// 8-aligned, so bit 0 is free).
	ck pmem.Addr
}

// published decodes the checkpoint word: the descriptor of the thread's
// published attempt, with ok == false when CP = 0 or RD = Null.
func (t *Thread) published() (d pmem.Addr, ok bool) {
	w := t.ctx.Load(t.ck)
	d = pmem.Addr(w &^ 1)
	return d, w&1 == 1 && d != pmem.Null
}

// Ctx returns the underlying pmem thread context.
func (t *Thread) Ctx() *pmem.ThreadCtx { return t.ctx }

// Invoke is the system-side step of invoking a recoverable operation: the
// failure-atomic durable reset CP := 0 "just before Op's execution starts"
// (Section 2). Either the crash precedes the invocation entirely — the
// operation then had no effect and the system re-invokes it from scratch,
// never calling its recovery function — or CP = 0 is durable before the
// operation's first instruction. Without this atomicity, a crash between
// two operations could make the recovery function return the previous
// operation's response (the ambiguity that makes detectability impossible
// without system support, per Ben-Baruch et al. [5]).
//
// The data structure operations call Invoke themselves as their first
// action, so ordinary callers need not know about it; a crash-injecting
// harness should call it explicitly before the operation so that it can
// tell "crashed before invocation" (re-invoke the operation) apart from
// "crashed inside the operation" (call its recovery function). The
// duplicate reset is harmless.
//
// Checkpoint invariant: Invoke is the only writer of a durable 0, and it
// always writes it durably. (The Paper profile's BeginOp also stores 0,
// but only right after Invoke, over a word that already reads 0, and it
// persists the word again before the operation goes on.) So a checkpoint
// that reads 0 in the volatile view is already 0 in the durable view —
// after a crash the volatile view is rebuilt from the durable one — and
// Invoke skips the store: one load of the thread's private line instead of
// a write-back. Read-only operations never Publish, so a run of them
// persists nothing at all.
func (t *Thread) Invoke() {
	if t.ctx.Load(t.ck) == 0 {
		return
	}
	t.ctx.StoreDurable(t.eng.sites.cp, t.ck, 0)
}

// BeginOp performs the bookkeeping at the start of a recoverable operation,
// Algorithm 1 lines 2-5: RD := Null; pbarrier(RD); CP := 1; pwb(CP); psync.
// All pwbs hit the thread's private checkpoint word (Low impact).
//
// Under the Default profile BeginOp does nothing. Its only purpose is that
// a durable CP = 1 never pairs with a stale RD, and Publish's single store
// of RD | 1 into the one checkpoint word already guarantees that: a word
// cannot persist torn. Under Paper and Full it issues the paper's exact
// instructions on the packed word, so the figures count what the paper
// counts.
func (t *Thread) BeginOp() {
	if t.eng.profile == Default {
		return
	}
	s := &t.eng.sites
	t.ctx.Store(t.ck, uint64(pmem.Null)) // RD := Null
	t.ctx.PWB(s.rd, t.ck)
	t.ctx.PFence()
	t.ctx.Store(t.ck, uint64(pmem.Null)|1) // CP := 1
	t.ctx.PWB(s.cp, t.ck)
	t.ctx.PSync()
}

// NewDesc allocates and fills an operation descriptor (Algorithm 1 line 16)
// with result = Bottom. The descriptor is volatile until Publish persists
// it; SetEarlyResult may update it before publication.
func (t *Thread) NewDesc(opType, pendingResult uint64, affect []AffectEntry, writes []WriteEntry, newInfoFields []pmem.Addr) pmem.Addr {
	if pendingResult == Bottom {
		panic("tracking: pending result must not be Bottom")
	}
	words := descEntries + 2*len(affect) + 3*len(writes) + len(newInfoFields)
	d := t.ctx.AllocLocal(words)
	c := t.ctx
	c.Store(d+descOpType*pmem.WordSize, opType)
	c.Store(d+descResult*pmem.WordSize, Bottom)
	c.Store(d+descPending*pmem.WordSize, pendingResult)
	c.Store(d+descCounts*pmem.WordSize,
		uint64(len(affect))|uint64(len(writes))<<20|uint64(len(newInfoFields))<<40)
	w := d + descEntries*pmem.WordSize
	for _, a := range affect {
		v := uint64(a.InfoField)
		if a.Untag {
			v |= 1
		}
		c.Store(w, v)
		c.Store(w+pmem.WordSize, a.Observed)
		w += 2 * pmem.WordSize
	}
	for _, wr := range writes {
		c.Store(w, uint64(wr.Field))
		c.Store(w+pmem.WordSize, wr.Old)
		c.Store(w+2*pmem.WordSize, wr.New)
		w += 3 * pmem.WordSize
	}
	for _, nf := range newInfoFields {
		c.Store(w, uint64(nf))
		w += pmem.WordSize
	}
	return d
}

// DescWords returns the size in words of the descriptor at d.
func (t *Thread) DescWords(d pmem.Addr) int {
	nA, nW, nN := t.counts(d)
	return descEntries + 2*nA + 3*nW + nN
}

func (t *Thread) counts(d pmem.Addr) (nA, nW, nN int) {
	c := t.ctx.Load(d + descCounts*pmem.WordSize)
	return int(c & 0xfffff), int(c >> 20 & 0xfffff), int(c >> 40 & 0xfffff)
}

// SetEarlyResult records the response of a read-only (or failed) operation
// in its not-yet-published descriptor (Algorithm 1 line 18; Algorithm 3
// line 23). It must be called before Publish.
func (t *Thread) SetEarlyResult(d pmem.Addr, v uint64) {
	if v == Bottom {
		panic("tracking: result must not be Bottom")
	}
	t.ctx.Store(d+descResult*pmem.WordSize, v)
}

// Publish persists the descriptor and any freshly allocated nodes
// (pbarrier(*opInfo, NewSet), Algorithm 1 line 19), then installs the
// descriptor in RD and persists it (lines 20-21): one store of d | 1, which
// sets RD = d and CP = 1 together. After Publish returns, the operation is
// recoverable: a crash at any later point lets Recover find the descriptor
// and complete or report the operation. A crash before Publish's psync
// leaves the durable checkpoint either as it was (0, or a failed earlier
// attempt whose recovery Help fails again) — and d has tagged nothing,
// since Help starts after the psync — or d | 1 with d itself durable,
// since the pfence orders the descriptor before the checkpoint.
//
// The descriptor and the fresh regions are written back as one set of
// lines: AllocLocal lays them out back to back, and a line they share is
// flushed once.
func (t *Thread) Publish(d pmem.Addr, fresh ...Region) {
	s := &t.eng.sites
	ls := lineSet{ctx: t.ctx, site: s.publish}
	ls.addRange(d, t.DescWords(d))
	for _, r := range fresh {
		ls.addRange(r.Addr, r.Words)
	}
	ls.flush()
	t.ctx.PFence()
	t.ctx.Store(t.ck, uint64(d)|1)
	t.ctx.PWB(s.rd, t.ck)
	t.ctx.PSync()
}

// Result reads the operation's result field (Bottom if it has not taken
// effect).
func (t *Thread) Result(d pmem.Addr) uint64 {
	return t.ctx.Load(d + descResult*pmem.WordSize)
}

// affectEntry reads affect entry i of descriptor d.
func (t *Thread) affectEntry(d pmem.Addr, i int) (field pmem.Addr, observed uint64, untag bool) {
	w := d + pmem.Addr((descEntries+2*i)*pmem.WordSize)
	fv := t.ctx.Load(w)
	return pmem.Addr(fv &^ 1), t.ctx.Load(w + pmem.WordSize), fv&1 == 1
}

func (t *Thread) writeEntry(d pmem.Addr, nA, i int) WriteEntry {
	w := d + pmem.Addr((descEntries+2*nA+3*i)*pmem.WordSize)
	return WriteEntry{
		Field: pmem.Addr(t.ctx.Load(w)),
		Old:   t.ctx.Load(w + pmem.WordSize),
		New:   t.ctx.Load(w + 2*pmem.WordSize),
	}
}

func (t *Thread) newEntry(d pmem.Addr, nA, nW, i int) pmem.Addr {
	w := d + pmem.Addr((descEntries+2*nA+3*nW+i)*pmem.WordSize)
	return pmem.Addr(t.ctx.Load(w))
}

// Help completes the operation described by d (Algorithm 2). It is
// idempotent and may be called by the operation's initiator, by any
// concurrent thread that finds a node tagged with d, and by the recovery
// function after a crash.
func (t *Thread) Help(d pmem.Addr) {
	c := t.ctx
	s := &t.eng.sites
	nA, nW, nN := t.counts(d)
	tag, untag := Tagged(d), Untagged(d)

	// Tagging phase: install the tagged descriptor in every AffectSet
	// node, in order. A helper that finds the tag already installed
	// (res == tag) records its flush at the observed site: it is
	// re-persisting another helper's write.
	for i := 0; i < nA; i++ {
		field, observed, _ := t.affectEntry(d, i)
		res, ok := c.CASV(field, observed, tag)
		switch {
		case ok:
			c.PWB(s.tag, field)
		case res == tag:
			c.PWB(s.observed, field)
		default:
			c.PWB(s.tag, field)
			if t.Result(d) != Bottom {
				// The operation already took effect and released this
				// entry: a late visit. Finish its cleanup instead of
				// backtracking (see lateCleanup).
				t.lateCleanup(d, nA, nW, nN)
				return
			}
			// Backtrack phase: untag the already-tagged prefix in
			// reverse order, then give up this attempt. Because
			// cleanup also untags in reverse AffectSet order, the
			// set of nodes tagged by d is always a prefix of the
			// AffectSet, so this backtrack also finishes a cleanup
			// interrupted by a crash.
			ls := lineSet{ctx: c, site: s.back}
			for j := i - 1; j >= 0; j-- {
				pf, _, _ := t.affectEntry(d, j)
				c.CASV(pf, tag, untag)
				ls.add(pf)
			}
			ls.flush()
			c.PSync()
			return
		}
	}
	c.PSync()

	// Update phase: apply every WriteSet change with CAS. Old values
	// never recur, so a replayed CAS fails harmlessly.
	for i := 0; i < nW; i++ {
		w := t.writeEntry(d, nA, i)
		c.CAS(w.Field, w.Old, w.New)
		c.PWB(s.update, w.Field)
	}

	// Record the response exactly once (the operation's linearization has
	// happened; Bottom -> pendingResult is a write-once CAS so helpers
	// cannot overwrite an already-recorded response).
	pending := c.Load(d + descPending*pmem.WordSize)
	c.CAS(d+descResult*pmem.WordSize, Bottom, pending)
	c.PWB(s.result, d+descResult*pmem.WordSize)
	c.PSync()

	// Cleanup phase: untag the NewSet, then the AffectSet in reverse
	// order (see the prefix invariant above), and write back each line
	// the untags touched once. Nodes the operation removed from the
	// structure keep their tag forever.
	ls := lineSet{ctx: c, site: s.cleanup}
	for i := 0; i < nN; i++ {
		nf := t.newEntry(d, nA, nW, i)
		c.CASV(nf, tag, untag)
		ls.add(nf)
	}
	for i := nA - 1; i >= 0; i-- {
		field, _, doUntag := t.affectEntry(d, i)
		if !doUntag {
			continue
		}
		c.CASV(field, tag, untag)
		ls.add(field)
	}
	ls.flush()
	c.PSync()
}

// lateCleanup finishes the cleanup of an operation whose result is already
// recorded, for a visitor whose tagging CAS found an AffectSet entry
// released. The cleanup untags the NewSet and the AffectSet in one fence
// epoch, so a crash may persist an AffectSet untag but not a NewSet one:
// the new node then stays tagged by a descriptor whose tagging can never
// succeed again, and without this step every operation reaching the node
// would help that descriptor forever. Each CAS is the cleanup's own
// (tag -> untag, so a no-op once the word moved on) and is persisted only
// when it changed the word; in a crash-free run every CAS fails and the
// visit costs what a backtrack at index 0 costs.
func (t *Thread) lateCleanup(d pmem.Addr, nA, nW, nN int) {
	c := t.ctx
	s := &t.eng.sites
	tag, untag := Tagged(d), Untagged(d)
	ls := lineSet{ctx: c, site: s.cleanup}
	for i := 0; i < nN; i++ {
		nf := t.newEntry(d, nA, nW, i)
		if _, ok := c.CASV(nf, tag, untag); ok {
			ls.add(nf)
		}
	}
	for i := nA - 1; i >= 0; i-- {
		field, _, doUntag := t.affectEntry(d, i)
		if !doUntag {
			continue
		}
		if _, ok := c.CASV(field, tag, untag); ok {
			ls.add(field)
		}
	}
	ls.flush()
	c.PSync()
}

// Recover implements Op-Recover (Algorithm 1 lines 27-31). It returns the
// recovered operation's descriptor and result when the operation took
// effect before (or despite) the crash. ok == false means the operation
// made no visible changes and must simply be re-invoked with the same
// arguments.
func (t *Thread) Recover() (d pmem.Addr, result uint64, ok bool) {
	d, ok = t.published()
	if !ok {
		return pmem.Null, 0, false
	}
	t.Help(d)
	if r := t.Result(d); r != Bottom {
		return d, r, true
	}
	return d, 0, false
}
