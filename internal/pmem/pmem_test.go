package pmem

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func newStrict(t testing.TB) *Pool {
	t.Helper()
	return New(Config{Mode: ModeStrict, CapacityWords: 1 << 16, MaxThreads: 8})
}

func newFast(t testing.TB) *Pool {
	t.Helper()
	return New(Config{Mode: ModeFast, CapacityWords: 1 << 16, MaxThreads: 8})
}

func TestAllocAlignmentAndZero(t *testing.T) {
	p := newStrict(t)
	ctx := p.NewThread(0)
	a := ctx.AllocWords(3)
	if a == Null {
		t.Fatal("alloc returned Null")
	}
	if a%WordSize != 0 {
		t.Fatalf("alloc not word aligned: %#x", uint64(a))
	}
	for i := 0; i < 3; i++ {
		if v := ctx.Load(a + Addr(i*WordSize)); v != 0 {
			t.Fatalf("fresh word %d = %d, want 0", i, v)
		}
		if v := p.DurableLoad(a + Addr(i*WordSize)); v != 0 {
			t.Fatalf("fresh durable word %d = %d, want 0", i, v)
		}
	}
	b := ctx.AllocLines(2)
	if b%LineBytes != 0 {
		t.Fatalf("AllocLines not line aligned: %#x", uint64(b))
	}
	if b <= a {
		t.Fatalf("allocations overlap: %#x then %#x", uint64(a), uint64(b))
	}
}

func TestAllocNeverReturnsNull(t *testing.T) {
	p := New(Config{Mode: ModeStrict, CapacityWords: 64, MaxThreads: 1})
	ctx := p.NewThread(0)
	seen := map[Addr]bool{}
	for i := 0; i < 5; i++ {
		a := ctx.AllocWords(2)
		if a == Null {
			t.Fatal("alloc returned Null")
		}
		if seen[a] {
			t.Fatalf("alloc returned %#x twice", uint64(a))
		}
		seen[a] = true
	}
}

func TestPoolExhaustionPanics(t *testing.T) {
	p := New(Config{Mode: ModeStrict, CapacityWords: LineWords * 2, MaxThreads: 1})
	ctx := p.NewThread(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	for i := 0; i < 100; i++ {
		ctx.AllocWords(4)
	}
}

func TestUnalignedAddressPanics(t *testing.T) {
	p := newStrict(t)
	ctx := p.NewThread(0)
	a := ctx.AllocWords(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unaligned address")
		}
	}()
	ctx.Load(a + 1)
}

func TestStoreLoadCAS(t *testing.T) {
	p := newStrict(t)
	ctx := p.NewThread(0)
	a := ctx.AllocWords(1)
	ctx.Store(a, 42)
	if v := ctx.Load(a); v != 42 {
		t.Fatalf("Load = %d, want 42", v)
	}
	if !ctx.CAS(a, 42, 43) {
		t.Fatal("CAS(42->43) failed")
	}
	if ctx.CAS(a, 42, 44) {
		t.Fatal("CAS with stale expected value succeeded")
	}
	if v := ctx.Load(a); v != 43 {
		t.Fatalf("Load = %d, want 43", v)
	}
}

func TestCASV(t *testing.T) {
	p := newStrict(t)
	ctx := p.NewThread(0)
	a := ctx.AllocWords(1)
	ctx.Store(a, 7)
	prev, ok := ctx.CASV(a, 7, 8)
	if !ok || prev != 7 {
		t.Fatalf("CASV success = (%d,%v), want (7,true)", prev, ok)
	}
	prev, ok = ctx.CASV(a, 7, 9)
	if ok || prev != 8 {
		t.Fatalf("CASV failure = (%d,%v), want (8,false)", prev, ok)
	}
}

func TestStoreWithoutPWBNotDurable(t *testing.T) {
	p := newStrict(t)
	ctx := p.NewThread(0)
	a := ctx.AllocWords(1)
	ctx.Store(a, 99)
	p.TriggerCrash()
	p.Crash(CrashPolicy{}) // worst case
	p.Recover()
	ctx2 := p.NewThread(0)
	if v := ctx2.Load(a); v != 0 {
		t.Fatalf("unflushed store survived crash: %d", v)
	}
}

func TestPWBPSyncMakesDurable(t *testing.T) {
	p := newStrict(t)
	ctx := p.NewThread(0)
	s := p.RegisterSite("test")
	a := ctx.AllocWords(1)
	ctx.Store(a, 99)
	ctx.PWB(s, a)
	ctx.PSync()
	if v := p.DurableLoad(a); v != 99 {
		t.Fatalf("durable = %d, want 99", v)
	}
	p.TriggerCrash()
	p.Crash(CrashPolicy{})
	p.Recover()
	ctx2 := p.NewThread(0)
	if v := ctx2.Load(a); v != 99 {
		t.Fatalf("synced store lost in crash: %d", v)
	}
}

func TestPWBWithoutPSyncMayOrMayNotSurvive(t *testing.T) {
	// Worst case: scheduled write-back did not complete.
	p := newStrict(t)
	ctx := p.NewThread(0)
	s := p.RegisterSite("test")
	a := ctx.AllocWords(1)
	ctx.Store(a, 5)
	ctx.PWB(s, a)
	p.TriggerCrash()
	p.Crash(CrashPolicy{})
	p.Recover()
	if v := p.DurableLoad(a); v != 0 {
		t.Fatalf("worst-case crash committed un-synced pwb: %d", v)
	}

	// Best case: CommitProb 1 commits everything scheduled.
	p2 := newStrict(t)
	ctx2 := p2.NewThread(0)
	s2 := p2.RegisterSite("test")
	b := ctx2.AllocWords(1)
	ctx2.Store(b, 6)
	ctx2.PWB(s2, b)
	p2.TriggerCrash()
	p2.Crash(CrashPolicy{Rng: rand.New(rand.NewSource(1)), CommitProb: 1})
	p2.Recover()
	if v := p2.DurableLoad(b); v != 6 {
		t.Fatalf("CommitProb=1 crash dropped scheduled pwb: %d", v)
	}
}

// TestFencePrefixRule checks that if any write-back issued after a PFence
// completed at the crash, then every write-back before the fence completed.
func TestFencePrefixRule(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p := newStrict(t)
		ctx := p.NewThread(0)
		s := p.RegisterSite("test")
		// a and b are in different lines.
		a := ctx.AllocLines(1)
		b := ctx.AllocLines(1)
		ctx.Store(a, 1)
		ctx.PWB(s, a)
		ctx.PFence()
		ctx.Store(b, 2)
		ctx.PWB(s, b)
		p.TriggerCrash()
		p.Crash(CrashPolicy{Rng: rand.New(rand.NewSource(seed)), CommitProb: 0.5})
		p.Recover()
		av, bv := p.DurableLoad(a), p.DurableLoad(b)
		if bv == 2 && av != 1 {
			t.Fatalf("seed %d: post-fence pwb committed but pre-fence pwb lost (a=%d b=%d)", seed, av, bv)
		}
	}
}

// TestPerLocationOrder checks that write-backs of the same word never
// regress the durable view to an older value once a newer one committed.
func TestPerLocationOrder(t *testing.T) {
	p := newStrict(t)
	c1 := p.NewThread(0)
	c2 := p.NewThread(1)
	s := p.RegisterSite("test")
	a := c1.AllocWords(1)
	c1.Store(a, 1)
	c1.PWB(s, a) // captures value 1
	c2.Store(a, 2)
	c2.PWB(s, a) // captures value 2 (newer version)
	c2.PSync()
	if v := p.DurableLoad(a); v != 2 {
		t.Fatalf("durable = %d, want 2", v)
	}
	c1.PSync() // must not roll back to the older captured value
	if v := p.DurableLoad(a); v != 2 {
		t.Fatalf("older write-back regressed durable view to %d", v)
	}
}

func TestEvictionCanPersistUnflushedWrites(t *testing.T) {
	hit := false
	for seed := int64(0); seed < 50 && !hit; seed++ {
		p := newStrict(t)
		ctx := p.NewThread(0)
		a := ctx.AllocWords(1)
		ctx.Store(a, 77)
		p.TriggerCrash()
		p.Crash(CrashPolicy{Rng: rand.New(rand.NewSource(seed)), EvictProb: 0.5})
		p.Recover()
		if p.DurableLoad(a) == 77 {
			hit = true
		}
	}
	if !hit {
		t.Fatal("eviction never persisted an unflushed write in 50 trials")
	}
}

func TestRecoverRestoresVolatileFromDurable(t *testing.T) {
	p := newStrict(t)
	ctx := p.NewThread(0)
	s := p.RegisterSite("test")
	a := ctx.AllocWords(2)
	ctx.Store(a, 10)
	ctx.PWB(s, a)
	ctx.PSync()
	ctx.Store(a, 11)                  // volatile-only update
	ctx.Store(a+Addr(WordSize), 1000) // never flushed
	p.TriggerCrash()
	p.Crash(CrashPolicy{})
	p.Recover()
	ctx2 := p.NewThread(0)
	if v := ctx2.Load(a); v != 10 {
		t.Fatalf("recovered volatile = %d, want durable value 10", v)
	}
	if v := ctx2.Load(a + Addr(WordSize)); v != 0 {
		t.Fatalf("unflushed neighbour survived: %d", v)
	}
}

func TestCrashFlagPanicsAccesses(t *testing.T) {
	p := newStrict(t)
	ctx := p.NewThread(0)
	a := ctx.AllocWords(1)
	p.TriggerCrash()
	func() {
		defer func() {
			if r := recover(); r != ErrCrashed {
				t.Fatalf("panic = %v, want ErrCrashed", r)
			}
		}()
		ctx.Load(a)
	}()
	p.Crash(CrashPolicy{})
	p.Recover()
	ctx2 := p.NewThread(0)
	_ = ctx2.Load(a) // must not panic after recovery
}

func TestSiteCountingAndDisable(t *testing.T) {
	p := newFast(t)
	s1 := p.RegisterSite("alpha")
	s2 := p.RegisterSite("beta")
	if again := p.RegisterSite("alpha"); again != s1 {
		t.Fatalf("re-registering a label produced a new site: %v vs %v", again, s1)
	}
	ctx := p.NewThread(0)
	a := ctx.AllocWords(1)
	ctx.PWB(s1, a)
	ctx.PWB(s1, a)
	ctx.PWB(s2, a)
	st := p.Snapshot()
	if st.PWBsBySite["alpha"] != 2 || st.PWBsBySite["beta"] != 1 || st.PWBs != 3 {
		t.Fatalf("counts = %+v", st)
	}
	p.SetSiteEnabled(s1, false)
	ctx.PWB(s1, a) // removed code line: neither executed nor counted
	ctx.PWB(s2, a)
	st = p.Snapshot()
	if st.PWBsBySite["alpha"] != 2 || st.PWBsBySite["beta"] != 2 {
		t.Fatalf("disabled site still counted: %+v", st)
	}
	p.SetAllSitesEnabled(false)
	ctx.PWB(s2, a)
	if st := p.Snapshot(); st.PWBs != 4 {
		t.Fatalf("SetAllSitesEnabled(false) ineffective: %+v", st)
	}
	p.SetAllSitesEnabled(true)
	ctx.PWB(s2, a)
	if st := p.Snapshot(); st.PWBs != 5 {
		t.Fatalf("SetAllSitesEnabled(true) ineffective: %+v", st)
	}
}

func TestPsyncDisableStopsCounting(t *testing.T) {
	p := newFast(t)
	ctx := p.NewThread(0)
	ctx.PSync()
	ctx.PFence()
	p.SetPsyncEnabled(false)
	ctx.PSync()
	ctx.PFence()
	st := p.Snapshot()
	if st.PSyncs != 1 || st.PFences != 1 {
		t.Fatalf("psync/pfence counts = %d/%d, want 1/1", st.PSyncs, st.PFences)
	}
}

func TestPsyncDisabledStillCommitsInStrictMode(t *testing.T) {
	p := newStrict(t)
	p.SetPsyncEnabled(false)
	ctx := p.NewThread(0)
	s := p.RegisterSite("test")
	a := ctx.AllocWords(1)
	ctx.Store(a, 3)
	ctx.PWB(s, a)
	ctx.PSync()
	if v := p.DurableLoad(a); v != 3 {
		t.Fatalf("strict-mode psync with accounting disabled lost semantics: durable=%d", v)
	}
}

// TestCounterConservation pins the accounting Stats documents: every
// recorded write-back executes — executed + merged == recorded, with
// nothing ever merged, deferred or elided — over a seeded ModeFast stream
// of PWB, PWBRange and PSync calls, with no NoSite traffic inside the
// measured window.
func TestCounterConservation(t *testing.T) {
	p := newFast(t)
	ctx := p.NewThread(0)
	s := p.RegisterSite("op")
	const words = 64
	base := ctx.AllocWords(words)

	snap := p.Snapshot()
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 2000; op++ {
		w := base + Addr(rng.Intn(words))*WordSize
		switch rng.Intn(7) {
		case 0, 1, 2:
			ctx.PWB(s, w)
		case 3, 4:
			ctx.PSync()
		case 5, 6:
			ctx.PWBRange(s, base, 1+rng.Intn(8))
		}
	}
	ctx.PSync()
	st := p.Snapshot().Sub(snap)
	if st.PWBs == 0 || st.PWBsExecuted == 0 {
		t.Fatal("the stream recorded or executed no write-back; the test lost its teeth")
	}
	if got := st.PWBsExecuted + st.PWBsMerged; got != st.PWBs || st.PWBsElided != 0 {
		t.Fatalf("executed %d + merged %d = %d (elided %d), want recorded %d",
			st.PWBsExecuted, st.PWBsMerged, got, st.PWBsElided, st.PWBs)
	}
	if st.PWBsDeferred != 0 || st.PWBsMerged != 0 || st.PSyncsMerged != 0 || st.BatchDrains != 0 {
		t.Fatalf("deferred/merged/psyncs merged/drains = %d/%d/%d/%d, want all 0",
			st.PWBsDeferred, st.PWBsMerged, st.PSyncsMerged, st.BatchDrains)
	}
}

func TestFastModeHeat(t *testing.T) {
	p := newFast(t)
	s := p.RegisterSite("hot")
	c1 := p.NewThread(0)
	c2 := p.NewThread(1)
	shared := c1.AllocLines(1)
	private := c1.AllocLines(1)
	// Alternate flushers on the shared line to build heat.
	for i := 0; i < 20; i++ {
		c1.PWB(s, shared)
		c2.PWB(s, shared)
	}
	hotSpin := p.Snapshot().SpinUnits
	// Reset accounting by measuring the delta of private flushes.
	for i := 0; i < 40; i++ {
		c1.PWB(s, private)
	}
	coldSpin := p.Snapshot().SpinUnits - hotSpin
	if hotSpin <= coldSpin {
		t.Fatalf("contended flushes (%d units/40) not more expensive than private (%d units/40)", hotSpin, coldSpin)
	}
}

func TestPWBRangeCoversLines(t *testing.T) {
	p := newStrict(t)
	ctx := p.NewThread(0)
	s := p.RegisterSite("range")
	a := ctx.AllocLines(2) // 16 words across exactly 2 lines
	for i := 0; i < 16; i++ {
		ctx.Store(a+Addr(i*WordSize), uint64(i+1))
	}
	ctx.PWBRange(s, a, 16)
	ctx.PSync()
	for i := 0; i < 16; i++ {
		if v := p.DurableLoad(a + Addr(i*WordSize)); v != uint64(i+1) {
			t.Fatalf("word %d durable = %d, want %d", i, v, i+1)
		}
	}
	if st := p.Snapshot(); st.PWBsBySite["range"] != 2 {
		t.Fatalf("PWBRange over 2 lines issued %d pwbs", st.PWBsBySite["range"])
	}
}

// TestQuickDurabilityRoundTrip: for any sequence of writes each followed by
// pwb+psync, crash+recover restores exactly the last written values.
func TestQuickDurabilityRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 64 {
			vals = vals[:64]
		}
		p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 1})
		ctx := p.NewThread(0)
		s := p.RegisterSite("q")
		addrs := make([]Addr, len(vals))
		for i, v := range vals {
			addrs[i] = ctx.AllocWords(1)
			ctx.Store(addrs[i], v)
			ctx.PWB(s, addrs[i])
			ctx.PSync()
		}
		p.TriggerCrash()
		p.Crash(CrashPolicy{})
		p.Recover()
		ctx2 := p.NewThread(0)
		for i, v := range vals {
			if ctx2.Load(addrs[i]) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCrashNeverInventsValues: after any crash policy, every durable
// word equals some value that was actually written to it (or zero).
func TestQuickCrashNeverInventsValues(t *testing.T) {
	f := func(seed int64, flushMask uint16) bool {
		p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 1})
		ctx := p.NewThread(0)
		s := p.RegisterSite("q")
		written := make(map[Addr]map[uint64]bool)
		rng := rand.New(rand.NewSource(seed))
		var addrs []Addr
		for i := 0; i < 8; i++ {
			addrs = append(addrs, ctx.AllocWords(1))
			written[addrs[i]] = map[uint64]bool{0: true}
		}
		for i := 0; i < 16; i++ {
			a := addrs[rng.Intn(len(addrs))]
			v := rng.Uint64()
			ctx.Store(a, v)
			written[a][v] = true
			if flushMask&(1<<uint(i)) != 0 {
				ctx.PWB(s, a)
			}
			if rng.Intn(3) == 0 {
				ctx.PSync()
			}
		}
		p.TriggerCrash()
		p.Crash(CrashPolicy{Rng: rng, CommitProb: 0.5, EvictProb: 0.3})
		p.Recover()
		for _, a := range addrs {
			if !written[a][p.DurableLoad(a)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCAS(t *testing.T) {
	p := newFast(t)
	boot := p.NewThread(0)
	a := boot.AllocWords(1)
	const threads, incs = 4, 1000
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ctx := p.NewThread(tid)
			for i := 0; i < incs; i++ {
				for {
					v := ctx.Load(a)
					if ctx.CAS(a, v, v+1) {
						break
					}
				}
			}
		}(tid)
	}
	wg.Wait()
	if v := boot.Load(a); v != threads*incs {
		t.Fatalf("counter = %d, want %d", v, threads*incs)
	}
}

func TestSiteLabels(t *testing.T) {
	p := newFast(t)
	p.RegisterSite("one")
	p.RegisterSite("two")
	labels := p.SiteLabels()
	if len(labels) != 2 || labels[0] != "one" || labels[1] != "two" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestSortedSiteCounts(t *testing.T) {
	st := Stats{PWBsBySite: map[string]uint64{"a": 3, "b": 9, "c": 3}}
	got := st.SortedSiteCounts()
	if len(got) != 3 || got[0].Label != "b" || got[1].Label != "a" || got[2].Label != "c" {
		t.Fatalf("sorted = %v", got)
	}
}

// TestQuickMultiEpochFencePrefix generalizes the fence-prefix rule to many
// epochs: for any crash, the set of committed write-backs must be a prefix
// of the fenced epochs plus a subset of the next.
func TestQuickMultiEpochFencePrefix(t *testing.T) {
	f := func(seed int64) bool {
		p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 14, MaxThreads: 2})
		ctx := p.NewThread(0)
		s := p.RegisterSite("q")
		const epochs = 5
		addrs := make([]Addr, epochs)
		for e := 0; e < epochs; e++ {
			addrs[e] = ctx.AllocLines(1)
			ctx.Store(addrs[e], uint64(e+1))
			ctx.PWB(s, addrs[e])
			ctx.PFence()
		}
		p.TriggerCrash()
		p.Crash(CrashPolicy{Rng: rand.New(rand.NewSource(seed)), CommitProb: 0.5})
		p.Recover()
		// Find the first epoch whose write-back did not commit; nothing
		// after it may have committed.
		first := epochs
		for e := 0; e < epochs; e++ {
			if p.DurableLoad(addrs[e]) == 0 {
				first = e
				break
			}
		}
		for e := first + 1; e < epochs; e++ {
			if p.DurableLoad(addrs[e]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreDurableOrdering checks the failure-atomic store is immediately
// durable and versioned consistently with later flushes of the same word.
func TestStoreDurableOrdering(t *testing.T) {
	p := newStrict(t)
	ctx := p.NewThread(0)
	s := p.RegisterSite("sd")
	a := ctx.AllocLines(1)
	ctx.StoreDurable(s, a, 7)
	if v := p.DurableLoad(a); v != 7 {
		t.Fatalf("StoreDurable not durable: %d", v)
	}
	// A later regular store+flush must supersede it.
	ctx.Store(a, 8)
	ctx.PWB(s, a)
	ctx.PSync()
	if v := p.DurableLoad(a); v != 8 {
		t.Fatalf("later flush lost: %d", v)
	}
	// And a stale captured write-back must not roll it back.
	ctx.Store(a, 9)
	ctx.PWB(s, a) // captures 9
	ctx.StoreDurable(s, a, 10)
	ctx.PSync() // commits the capture of 9, which is older than 10
	if v := p.DurableLoad(a); v != 10 {
		t.Fatalf("StoreDurable rolled back by stale capture: %d", v)
	}
}

func TestAllocLocalDistinctLinesAcrossThreads(t *testing.T) {
	p := newFast(t)
	c1, c2 := p.NewThread(0), p.NewThread(1)
	a := c1.AllocLocal(3)
	b := c2.AllocLocal(3)
	if a/LineBytes == b/LineBytes {
		t.Fatalf("thread-local allocations share a line: %#x %#x", uint64(a), uint64(b))
	}
	// Sequential allocations of one thread pack within its chunk.
	a2 := c1.AllocLocal(3)
	if a2 != a+3*WordSize {
		t.Fatalf("local bump allocation not contiguous: %#x then %#x", uint64(a), uint64(a2))
	}
}
