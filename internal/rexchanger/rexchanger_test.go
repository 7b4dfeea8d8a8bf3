package rexchanger

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/pmem"
)

func newEx(t testing.TB, mode pmem.Mode) (*pmem.Pool, *Exchanger) {
	t.Helper()
	pool := pmem.New(pmem.Config{Mode: mode, CapacityWords: 1 << 20, MaxThreads: 16})
	return pool, New(pool, 16, 0)
}

func TestTimeoutAlone(t *testing.T) {
	pool, ex := newEx(t, pmem.ModeStrict)
	h := ex.Handle(pool.NewThread(1))
	v, ok := h.Exchange(42, 50)
	if ok || v != TimedOut {
		t.Fatalf("lonely exchange = (%d,%v), want timeout", v, ok)
	}
	// The exchanger must remain usable after a timeout.
	v, ok = h.Exchange(43, 50)
	if ok || v != TimedOut {
		t.Fatalf("second lonely exchange = (%d,%v), want timeout", v, ok)
	}
}

func TestPairExchange(t *testing.T) {
	pool, ex := newEx(t, pmem.ModeFast)
	var wg sync.WaitGroup
	results := make([]uint64, 2)
	oks := make([]bool, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := ex.Handle(pool.NewThread(i + 1))
			results[i], oks[i] = h.Exchange(uint64(100+i), 1<<22)
		}(i)
	}
	wg.Wait()
	if !oks[0] || !oks[1] {
		t.Fatalf("exchange failed: %v %v", oks, results)
	}
	if results[0] != 101 || results[1] != 100 {
		t.Fatalf("values not swapped: %v", results)
	}
}

func TestSentinelValuePanics(t *testing.T) {
	pool, ex := newEx(t, pmem.ModeStrict)
	h := ex.Handle(pool.NewThread(1))
	defer func() {
		if recover() == nil {
			t.Fatal("sentinel value accepted")
		}
	}()
	h.Exchange(TimedOut, 1)
}

func TestAttach(t *testing.T) {
	pool, _ := newEx(t, pmem.ModeStrict)
	ex2, err := Attach(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := ex2.Handle(pool.NewThread(1))
	if v, ok := h.Exchange(7, 10); ok || v != TimedOut {
		t.Fatalf("attached exchanger misbehaves: (%d,%v)", v, ok)
	}
	if _, err := Attach(pool, 3); err == nil {
		t.Fatal("Attach on empty slot succeeded")
	}
}

// failer is the slice of testing.T that checkPairing needs, so tests can
// wrap failures with extra context.
type failer interface {
	Helper()
	Fatalf(format string, args ...interface{})
}

// checkPairing validates exchange semantics over resolved ops: values are
// unique per op; if op a received value v, the op that offered v received
// a's value; timed-out ops' values were received by nobody.
func checkPairing(t failer, offers map[uint64]int, results map[int]uint64, values map[int]uint64) {
	t.Helper()
	received := map[uint64]int{}
	for op, res := range results {
		if res == TimedOut {
			continue
		}
		if n := received[res]; n != 0 {
			t.Fatalf("value %d received more than once", res)
		}
		received[res] = op + 1
		partner, ok := offers[res]
		if !ok {
			t.Fatalf("op %d received value %d that nobody offered", op, res)
		}
		if results[partner] != values[op] {
			t.Fatalf("asymmetric exchange: op %d got %d from op %d, but op %d got %d (want %d)",
				op, res, partner, partner, results[partner], values[op])
		}
	}
	for op, res := range results {
		if res == TimedOut {
			if who, ok := received[values[op]]; ok && who != 0 {
				t.Fatalf("op %d timed out but its value %d was received", op, values[op])
			}
		}
	}
}

func TestManyPairsStress(t *testing.T) {
	pool, ex := newEx(t, pmem.ModeFast)
	const threads = 6
	const opsPer = 60
	var mu sync.Mutex
	offers := map[uint64]int{}
	results := map[int]uint64{}
	values := map[int]uint64{}

	var wg sync.WaitGroup
	for tid := 1; tid <= threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			h := ex.Handle(pool.NewThread(tid))
			for i := 0; i < opsPer; i++ {
				opID := tid*1000 + i
				v := uint64(opID)
				got, ok := h.Exchange(v, 3000)
				mu.Lock()
				offers[v] = opID
				values[opID] = v
				if ok {
					results[opID] = got
				} else {
					results[opID] = TimedOut
				}
				mu.Unlock()
			}
		}(tid)
	}
	wg.Wait()
	checkPairing(t, offers, results, values)
	// With six threads hammering the exchanger, most ops should pair.
	paired := 0
	for _, r := range results {
		if r != TimedOut {
			paired++
		}
	}
	if paired == 0 {
		t.Fatal("no exchange ever paired under contention")
	}
}

// Chaos adapter: op.Key carries the unique value to offer.

type exThread struct{ h *Handle }

func (et exThread) Invoke() { et.h.Invoke() }

func (et exThread) Run(op chaos.Op) uint64 {
	v, _ := et.h.Exchange(uint64(op.Key), 400)
	return v
}

func (et exThread) Recover(op chaos.Op) uint64 {
	v, _ := et.h.RecoverExchange(uint64(op.Key), 400)
	return v
}

func TestChaosExchanger(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 21, MaxThreads: 8})
		New(pool, 8, 0)
		res, err := chaos.Run(chaos.Config{
			Pool:         pool,
			Threads:      4,
			OpsPerThread: 25,
			GenOp: func(rng *rand.Rand, tid, i int) chaos.Op {
				return chaos.Op{Key: int64(tid*100000 + i)} // unique value
			},
			Reattach: func(pool *pmem.Pool) (chaos.ThreadFactory, error) {
				ex, err := Attach(pool, 0)
				if err != nil {
					return nil, err
				}
				return func(tid int) (chaos.Thread, error) {
					return exThread{h: ex.Handle(pool.NewThread(tid))}, nil
				}, nil
			},
			Seed:                       seed,
			MaxCrashes:                 5,
			MeanAccessesBetweenCrashes: 800,
			CommitProb:                 0.5,
			EvictProb:                  0.1,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		offers := map[uint64]int{}
		results := map[int]uint64{}
		values := map[int]uint64{}
		opID := 0
		for _, log := range res.Logs {
			for _, rec := range log {
				v := uint64(rec.Op.Key)
				offers[v] = opID
				values[opID] = v
				results[opID] = rec.Result
				opID++
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d: %v", seed, r)
				}
			}()
			checkPairing(fatalT{t, seed}, offers, results, values)
		}()
	}
}

// fatalT routes checkPairing failures through a panic so the seed can be
// attached to the message.
type fatalT struct {
	*testing.T
	seed int64
}

func (f fatalT) Fatalf(format string, args ...interface{}) {
	panic(fmt.Sprintf("(seed %d) "+format, append([]interface{}{f.seed}, args...)...))
}

// TestResetSlotPublishesDurableNode is the regression test for a durable
// slot pointing at a node with no durable content ("slot node has invalid
// kind" after recovery, hit by TestAdapterChaosManySeeds/rexchanger):
// resetSlot used to only fence its EMPTY node before the CAS that
// publishes it, and another thread persisting the slot right after — a
// waiter flushing after its own install, or a racing resetter — made the
// pointer durable while the node's write-back was still pending. The hook
// plays that other thread at the reset's slot flush.
func TestResetSlotPublishesDurableNode(t *testing.T) {
	pool, ex := newEx(t, pmem.ModeStrict)
	c := ex.Handle(pool.NewThread(1)).ctx
	// A durably installed WAITING node whose waiter already gave up.
	d := ex.Handle(pool.NewThread(1)).newDesc(7)
	c.Store(d+dPartner, partnerCancelled)
	wn := c.AllocLocal(ndLen)
	c.Store(wn+ndKind, kindWaiting)
	c.Store(wn+ndValue, 7)
	c.Store(wn+ndDesc, uint64(d))
	c.PWBRange(pmem.NoSite, d, dLen)
	c.PWBRange(pmem.NoSite, wn, ndLen)
	c.PFence()
	c.Store(ex.slot, uint64(wn))
	c.PWB(pmem.NoSite, ex.slot)
	c.PSync()

	// At the reset's slot flush, another thread persists the slot and the
	// system crashes before the resetter's closing sync.
	other := pool.NewThread(3)
	pool.SetTelemetrySink(&pwbHook{tid: 2, site: ex.s.slot, fn: func() {
		other.PWB(pmem.NoSite, ex.slot)
		other.PSync()
		pool.TriggerCrash()
	}})
	func() {
		defer func() {
			if r := recover(); r != nil && r != pmem.ErrCrashed {
				panic(r)
			}
		}()
		ex.Handle(pool.NewThread(2)).resetSlot(wn)
	}()
	pool.SetTelemetrySink(nil)
	if !pool.CrashPending() {
		t.Fatal("the hook never fired")
	}
	pool.Crash(pmem.CrashPolicy{}) // drop every unsynced write-back
	pool.Recover()

	nd := pmem.Addr(pool.DurableLoad(ex.slot))
	if k := pool.DurableLoad(nd + ndKind); k != kindEmpty && k != kindWaiting {
		t.Fatalf("durable slot points at node %#x of kind %d", uint64(nd), k)
	}
	ex2, err := Attach(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ex2.Handle(pool.NewThread(4)).Exchange(5, 20); ok || v != TimedOut {
		t.Fatalf("exchange after recovery = (%d, %v), want a timeout", v, ok)
	}
}

// pwbHook is a telemetry sink that runs fn once, inside thread tid's first
// recorded write-back of site: a deterministic interleaving point.
type pwbHook struct {
	tid  int
	site pmem.Site
	fn   func()
}

func (h *pwbHook) TelemetryPWB(tid int, s pmem.Site, _ int64) {
	if tid == h.tid && s == h.site && h.fn != nil {
		fn := h.fn
		h.fn = nil
		fn()
	}
}

func (h *pwbHook) TelemetryPSync(int, int64, int64, []pmem.SiteStall)             {}
func (h *pwbHook) TelemetryPFence(int)                                            {}
func (h *pwbHook) TelemetryEvent(pmem.TelemetryEventKind, int, pmem.Site, uint64) {}
