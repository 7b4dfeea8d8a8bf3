package rmm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// orderSlots is the size of the persist-order tests' durable slot table,
// the application state RecoverGC marks from.
const orderSlots = 24

// orderRun is one replay of a persist-order path: a strict pool holding a
// growable allocator (root slot 0) and a durable slot table, one handle,
// and the application's volatile view of which blocks it holds.
type orderRun struct {
	pool  *pmem.Pool
	a     *Allocator
	h     *Handle
	ctx   *pmem.ThreadCtx
	slots pmem.Addr
	site  pmem.Site
	// held are the blocks Alloc returned that the application has not yet
	// durably disowned; limbo are the disowned blocks whose Free has not
	// returned.
	held, limbo map[pmem.Addr]bool
}

func newOrderRun() *orderRun {
	pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 11, MaxThreads: 4})
	a := NewGrowable(pool, 2, 32, 2, 0)
	slots := pool.NewThread(0).AllocWords(orderSlots) // fresh words are durably zero
	ctx := pool.NewThread(1)
	return &orderRun{
		pool: pool, a: a, h: a.Handle(ctx), ctx: ctx, slots: slots,
		site: pool.RegisterSite("rmm-test/pwb-slot"),
		held: map[pmem.Addr]bool{}, limbo: map[pmem.Addr]bool{},
	}
}

func (r *orderRun) slot(i int) pmem.Addr { return r.slots + pmem.Addr(i*pmem.WordSize) }

// publish is the allocation path: Alloc, the caller's PFence, the slot
// publish and its PSync — kvstore.newBlock's order.
func (r *orderRun) publish(i int) {
	b := r.h.Alloc()
	if b == pmem.Null {
		panic("rmm: allocator exhausted in a persist-order path")
	}
	r.held[b] = true
	r.ctx.PFence()
	r.ctx.Store(r.slot(i), uint64(b))
	r.ctx.PWB(r.site, r.slot(i))
	r.ctx.PSync()
}

// disown is the release path: the slot is durably cleared, then the block
// is freed.
func (r *orderRun) disown(i int) {
	b := pmem.Addr(r.ctx.Load(r.slot(i)))
	r.ctx.Store(r.slot(i), 0)
	r.ctx.PWB(r.site, r.slot(i))
	r.ctx.PSync()
	delete(r.held, b)
	r.limbo[b] = true
	if err := r.h.Free(b); err != nil {
		panic(err)
	}
	delete(r.limbo, b)
}

// orderPaths are the two persist-order paths: setup runs uncrashed, steps
// runs under the armed crash. The release path frees 18 blocks, so its
// steps cross the free buffer's flush.
var orderPaths = []struct {
	name         string
	setup, steps func(r *orderRun)
}{
	{"alloc-publish", func(*orderRun) {}, func(r *orderRun) {
		for i := 0; i < 20; i++ {
			r.publish(i)
		}
	}},
	{"disown-free", func(r *orderRun) {
		for i := 0; i < 20; i++ {
			r.publish(i)
		}
	}, func(r *orderRun) {
		for i := 19; i >= 2; i-- {
			r.disown(i)
		}
	}},
}

// crashes runs body and reports whether an armed crash parked it.
func crashes(body func()) (parked bool) {
	defer func() {
		if p := recover(); p != nil {
			if p != pmem.ErrCrashed {
				panic(p)
			}
			parked = true
		}
	}()
	body()
	return false
}

// check audits a crashed and recovered run:
//   - every block the application held at the crash is durably reserved;
//   - RecoverGC from the durable slots restores no mark, and no block is
//     in two slots or is issued again after it;
//   - RecoverGC reclaims at most the unpublished blocks plus what one
//     handle buffers, refillBlocks+flushBlocks-1.
func (r *orderRun) check(t *testing.T, what string) {
	t.Helper()
	for b := range r.held {
		if w, mask := r.a.bitWord(mustIndex(t, r.a, b)); r.pool.DurableLoad(w)&mask == 0 {
			t.Fatalf("%s: held block %#x is not durably reserved", what, uint64(b))
		}
	}
	a, err := Attach(r.pool, 0)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	ctx := r.pool.NewThread(1)
	owner := map[pmem.Addr]int{}
	var roots []pmem.Addr
	for i := 0; i < orderSlots; i++ {
		b := pmem.Addr(ctx.Load(r.slot(i)))
		if b == pmem.Null {
			continue
		}
		if j, dup := owner[b]; dup {
			t.Fatalf("%s: block %#x in slots %d and %d", what, uint64(b), j, i)
		}
		owner[b] = i
		roots = append(roots, b)
	}
	if err := a.RecoverGC(ctx, markFromList(roots)); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	st := a.Stats()
	if st.MarksRestored != 0 {
		t.Fatalf("%s: %d published blocks had no durable reservation", what, st.MarksRestored)
	}
	unpublished := len(r.limbo)
	for b := range r.held {
		if _, ok := owner[b]; !ok {
			unpublished++
		}
	}
	if bound := uint64(unpublished + refillBlocks + flushBlocks - 1); st.LeaksReclaimed > bound {
		t.Fatalf("%s: RecoverGC reclaimed %d blocks, bound %d (%d unpublished)",
			what, st.LeaksReclaimed, bound, unpublished)
	}
	if err := a.CheckInvariants(ctx); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	h := a.Handle(ctx)
	for b := h.Alloc(); b != pmem.Null; b = h.Alloc() {
		if i, ok := owner[b]; ok {
			t.Fatalf("%s: block %#x of slot %d issued again", what, uint64(b), i)
		}
	}
}

// TestPersistOrderEveryAccess crashes each persist-order path at every
// pool access, under the drop-all and commit-all adversaries and 200
// seeded random ones, and audits each recovery with check. The refill's
// PSync, the release's clear-before-push order and the reservation of
// every issued block are what keep it green.
func TestPersistOrderEveryAccess(t *testing.T) {
	policies := []func() pmem.CrashPolicy{
		func() pmem.CrashPolicy { return pmem.CrashPolicy{} },
		func() pmem.CrashPolicy { return pmem.CrashPolicy{CommitAll: true} },
	}
	for seed := int64(1); seed <= 200; seed++ {
		seed := seed
		policies = append(policies, func() pmem.CrashPolicy {
			return pmem.CrashPolicy{Rng: rand.New(rand.NewSource(seed)), CommitProb: 0.5, EvictProb: 0.25}
		})
	}
	for _, p := range orderPaths {
		t.Run(p.name, func(t *testing.T) {
			points := 0
			for k := int64(1); ; k++ {
				completed := false
				for pi, policy := range policies {
					r := newOrderRun()
					p.setup(r)
					r.pool.SetCrashAfter(k)
					parked := crashes(func() { p.steps(r) })
					r.pool.SetCrashAfter(0)
					if !parked {
						completed = true
						break
					}
					r.pool.Crash(policy())
					r.pool.Recover()
					r.check(t, fmt.Sprintf("crash at access %d, adversary %d", k, pi))
				}
				if completed {
					break
				}
				points++
			}
			if points < 50 {
				t.Fatalf("only %d crash points: the path no longer exercises the allocator", points)
			}
		})
	}
}

// TestFlushedRestartReclaimsNothing runs the release path (whose setup is
// the allocation path) without a crash, flushes the handle and restarts
// cleanly (every write-back completed): a flushed handle strands no
// reservation, so RecoverGC reclaims nothing and rewrites no bitmap word.
func TestFlushedRestartReclaimsNothing(t *testing.T) {
	r := newOrderRun()
	release := orderPaths[1]
	release.setup(r)
	release.steps(r)
	r.h.Flush()
	r.pool.TriggerCrash()
	r.pool.Crash(pmem.CrashPolicy{CommitAll: true})
	r.pool.Recover()
	a, err := Attach(r.pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := r.pool.NewThread(1)
	roots := []pmem.Addr{pmem.Addr(ctx.Load(r.slot(0))), pmem.Addr(ctx.Load(r.slot(1)))}
	before := r.pool.Snapshot()
	if err := a.RecoverGC(ctx, markFromList(roots)); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.LeaksReclaimed != 0 || st.MarksRestored != 0 {
		t.Fatalf("clean restart reclaimed %d and restored %d blocks, want 0 and 0",
			st.LeaksReclaimed, st.MarksRestored)
	}
	if n := r.pool.Snapshot().Sub(before).PWBsBySite["rmm/pwb-gc-rewrite"]; n != 0 {
		t.Fatalf("clean restart rewrote %d bitmap words", n)
	}
	if n := a.InUse(ctx); n != len(roots) {
		t.Fatalf("InUse = %d after the clean restart, want %d", n, len(roots))
	}
}

// interleaveSink runs hook once, from inside the first write-back that
// thread tid issues at site: a scheduling point inside an allocator
// batch, where a second handle may run.
type interleaveSink struct {
	tid  int
	site pmem.Site
	hook func()
}

func (k *interleaveSink) TelemetryPWB(tid int, s pmem.Site, _ int64) {
	if tid == k.tid && s == k.site && k.hook != nil {
		hook := k.hook
		k.hook = nil
		hook()
	}
}

func (*interleaveSink) TelemetryPSync(int, int64, int64, []pmem.SiteStall)             {}
func (*interleaveSink) TelemetryPFence(int)                                            {}
func (*interleaveSink) TelemetryEvent(pmem.TelemetryEventKind, int, pmem.Site, uint64) {}

// TestReleaseClearsBeforePush runs a second handle's Alloc inside the
// first release write-back of a flush whose batch spans two chunks, so
// two bitmap lines. Had the flush spliced its blocks onto the stacks
// before clearing their bits, the second handle would refill a block of
// the second chunk whose stale clear then lands on its fresh
// reservation: a held block without a durable bit.
func TestReleaseClearsBeforePush(t *testing.T) {
	pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 12, MaxThreads: 4})
	a := NewGrowable(pool, 2, 16, 4, 0)
	sink := &interleaveSink{tid: 1, site: a.s.release}
	pool.SetTelemetrySink(sink)
	ha := a.Handle(pool.NewThread(1)) // refills from chunk 0 first
	hb := a.Handle(pool.NewThread(2)) // refills from chunk 1 first
	held := make([]pmem.Addr, 32)     // chunk 0, then chunk 1; both stacks empty
	for i := range held {
		if held[i] = ha.Alloc(); held[i] == pmem.Null {
			t.Fatalf("alloc %d failed", i)
		}
	}
	var got pmem.Addr
	sink.hook = func() { got = hb.Alloc() }
	for _, b := range held[8:24] { // the 16th Free flushes: chunk 0's line first
		if err := ha.Free(b); err != nil {
			t.Fatal(err)
		}
	}
	if got == pmem.Null {
		t.Fatal("the second handle never allocated inside the release")
	}
	ctx := pool.NewThread(3)
	if err := a.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
	live := append(append([]pmem.Addr{got}, held[:8]...), held[24:]...)
	pool.TriggerCrash()
	pool.Crash(pmem.CrashPolicy{CommitAll: true})
	pool.Recover()
	a2, err := Attach(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.RecoverGC(pool.NewThread(1), markFromList(live)); err != nil {
		t.Fatal(err)
	}
	if n := a2.Stats().MarksRestored; n != 0 {
		t.Fatalf("%d held blocks lost their reservation", n)
	}
}
