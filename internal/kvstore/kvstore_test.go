package kvstore_test

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/kvstore"
	"repro/internal/pmem"
)

func newPool(words, threads int) *pmem.Pool {
	return pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: words, MaxThreads: threads})
}

func valueFor(key int64) uint64 { return uint64(key)*2654435761 + 9 }

func TestBasicOps(t *testing.T) {
	pool := newPool(1<<18, 4)
	s, err := kvstore.New(pool, kvstore.Config{Shards: 8, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handle(pool.NewThread(1))
	for k := int64(1); k <= 40; k++ {
		h.Invoke()
		absent, err := h.Put(k, valueFor(k), kvstore.NoExpiry)
		if err != nil {
			t.Fatal(err)
		}
		if !absent {
			t.Fatalf("fresh put of %d reported present", k)
		}
	}
	for k := int64(1); k <= 40; k++ {
		h.Invoke()
		if v, ok := h.Get(k); !ok || v != valueFor(k) {
			t.Fatalf("get %d = (%d, %v), want (%d, true)", k, v, ok, valueFor(k))
		}
	}
	// Overwrite changes the value and reports the key present.
	h.Invoke()
	if absent, err := h.Put(7, 1234, kvstore.NoExpiry); err != nil || absent {
		t.Fatalf("overwrite put = (%v, %v), want (false, nil)", absent, err)
	}
	h.Invoke()
	if v, ok := h.Get(7); !ok || v != 1234 {
		t.Fatalf("get after overwrite = (%d, %v)", v, ok)
	}
	// CAS succeeds from the current value only.
	h.Invoke()
	if ok, err := h.CAS(7, 999, 5); err != nil || ok {
		t.Fatalf("stale cas = (%v, %v), want (false, nil)", ok, err)
	}
	h.Invoke()
	if ok, err := h.CAS(7, 1234, 5); err != nil || !ok {
		t.Fatalf("cas = (%v, %v), want (true, nil)", ok, err)
	}
	h.Invoke()
	if v, ok := h.Get(7); !ok || v != 5 {
		t.Fatalf("get after cas = (%d, %v)", v, ok)
	}
	// Delete removes exactly once.
	h.Invoke()
	if present, err := h.Delete(13); err != nil || !present {
		t.Fatalf("delete = (%v, %v), want (true, nil)", present, err)
	}
	h.Invoke()
	if present, err := h.Delete(13); err != nil || present {
		t.Fatalf("second delete = (%v, %v), want (false, nil)", present, err)
	}
	h.Invoke()
	if _, ok := h.Get(13); ok {
		t.Fatal("deleted key still readable")
	}
	// Reinsert through the tombstone.
	h.Invoke()
	if absent, err := h.Put(13, 77, kvstore.NoExpiry); err != nil || !absent {
		t.Fatalf("reinsert = (%v, %v), want (true, nil)", absent, err)
	}
	ctx := pool.NewThread(2)
	keys := s.Keys(ctx)
	if len(keys) != 40 {
		t.Fatalf("store holds %d keys, want 40", len(keys))
	}
	if err := s.CheckInvariants(ctx, true); err != nil {
		t.Fatal(err)
	}
}

func TestTTLEviction(t *testing.T) {
	pool := newPool(1<<18, 4)
	s, err := kvstore.New(pool, kvstore.Config{Shards: 4, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handle(pool.NewThread(1))
	for k := int64(1); k <= 30; k++ {
		h.Invoke()
		ttl := kvstore.NoExpiry
		if k%3 == 0 {
			ttl = uint64(k) // expires at tick k
		}
		if _, err := h.Put(k, valueFor(k), ttl); err != nil {
			t.Fatal(err)
		}
	}
	n, err := h.EvictExpired(15)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 { // keys 3, 6, 9, 12, 15
		t.Fatalf("evicted %d keys at tick 15, want 5", n)
	}
	h.Invoke()
	if _, ok := h.Get(9); ok {
		t.Fatal("expired key 9 survived eviction")
	}
	h.Invoke()
	if _, ok := h.Get(18); !ok {
		t.Fatal("unexpired key 18 evicted")
	}
	n, err = h.EvictExpired(1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 { // keys 18, 21, 24, 27, 30
		t.Fatalf("evicted %d keys at tick 1000, want 5", n)
	}
	ctx := pool.NewThread(2)
	if got := len(s.Keys(ctx)); got != 20 {
		t.Fatalf("%d keys after eviction, want 20", got)
	}
	if err := s.CheckInvariants(ctx, true); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	pool := newPool(1<<14, 2)
	cases := []struct {
		name string
		cfg  kvstore.Config
		want string
	}{
		{"root slot out of range", kvstore.Config{RootSlot: pmem.NumRootSlots}, "out of range"},
		{"negative root slot", kvstore.Config{RootSlot: -1}, "out of range"},
		{"negative shards", kvstore.Config{Shards: -4}, "shard count"},
		{"negative threads", kvstore.Config{MaxThreads: -1}, "max threads"},
		{"bad geometry", kvstore.Config{ChunkBlocks: -1}, "geometry"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := kvstore.New(pool, c.cfg)
			if err == nil {
				t.Fatal("New accepted invalid config")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestRecoverRejectsGarbageRoot(t *testing.T) {
	pool := newPool(1<<14, 2)
	if _, err := kvstore.Recover(pool, 0); err == nil || !strings.Contains(err.Error(), "holds no store") {
		t.Fatalf("recover on fresh pool: %v", err)
	}
	if _, err := kvstore.Recover(pool, pmem.NumRootSlots); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("recover on bad slot: %v", err)
	}
	boot := pool.NewThread(0)
	boot.Store(pool.RootSlot(0), 64*pmem.WordSize)
	if _, err := kvstore.Recover(pool, 0); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("recover on zeroed header: %v", err)
	}
}

func TestRecoverCleanStore(t *testing.T) {
	pool := newPool(1<<18, 4)
	s, err := kvstore.New(pool, kvstore.Config{Shards: 8, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handle(pool.NewThread(1))
	for k := int64(1); k <= 25; k++ {
		h.Invoke()
		if _, err := h.Put(k, valueFor(k), kvstore.NoExpiry); err != nil {
			t.Fatal(err)
		}
	}
	h.Flush()
	pool.TriggerCrash()
	pool.Crash(pmem.CrashPolicy{Rng: rand.New(rand.NewSource(1)), CommitProb: 1})
	pool.Recover()
	r, err := kvstore.Recover(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := pool.NewThread(1)
	rh := r.Handle(ctx)
	for k := int64(1); k <= 25; k++ {
		rh.Invoke()
		if v, ok := rh.Get(k); !ok || v != valueFor(k) {
			t.Fatalf("recovered get %d = (%d, %v)", k, v, ok)
		}
	}
	if err := r.CheckInvariants(ctx, true); err != nil {
		t.Fatal(err)
	}
	if err := r.AuditPostRecovery(pool.NewThread(2)); err != nil {
		t.Fatal(err)
	}
}

// runToCrash runs op on a fresh thread until it completes or the armed
// crash parks it, reporting whether the crash fired.
func runToCrash(op func()) (crashed bool) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				if r != pmem.ErrCrashed {
					panic(r)
				}
				crashed = true
			}
		}()
		op()
	}()
	wg.Wait()
	return crashed
}

// crashPolicy returns the seeded crash adversary used by the window scans.
func crashPolicy(seed int64) pmem.CrashPolicy {
	return pmem.CrashPolicy{
		Rng:        rand.New(rand.NewSource(seed)),
		CommitProb: 0.5,
		EvictProb:  0.3,
	}
}

// buildTornPut builds a fresh store with preload keys, then runs one
// fresh-key Put with a crash armed after `crashPoint` accesses. It
// returns the crashed pool and whether the op's invocation step completed
// before the crash (the harness's Recover-vs-rerun criterion), or ok =
// false when crashPoint walked past the whole operation.
func buildTornPut(t *testing.T, crashPoint int64, key int64, preload int) (pool *pmem.Pool, invoked, ok bool) {
	t.Helper()
	pool = newPool(1<<18, 4)
	s, err := kvstore.New(pool, kvstore.Config{Shards: 4, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handle(pool.NewThread(1))
	for k := int64(1); k <= int64(preload); k++ {
		h.Invoke()
		if _, err := h.Put(k, valueFor(k), kvstore.NoExpiry); err != nil {
			t.Fatal(err)
		}
	}
	pool.SetCrashAfter(crashPoint)
	crashed := runToCrash(func() {
		h.Invoke()
		invoked = true
		if _, err := h.Put(key, valueFor(key), 99); err != nil {
			panic(err)
		}
	})
	pool.SetCrashAfter(0)
	return pool, invoked, crashed
}

// TestCrashMidPutWindows scans a crash point across every pool access of a
// fresh-key Put — covering the value-write, index-insert and TTL-stamp
// stages and everything between — and at each point additionally scans a
// second crash through the recovery itself (depth 2). Mirroring the chaos
// harness, the recovery function is called only when the invocation step
// completed before the crash; otherwise the op reruns fresh. After the
// final recovery the exactly-once contract must hold: the put reports the
// key was absent, the key maps to the put's value with its TTL stamped,
// and the store passes invariants and the post-recovery audit.
func TestCrashMidPutWindows(t *testing.T) {
	const key, preload = 501, 12
	secondary := []int64{0, 3, 11, 29, 67}
	for primary := int64(1); ; primary++ {
		if _, _, crashed := buildTornPut(t, primary, key, preload); !crashed {
			if primary == 1 {
				t.Fatal("put made no pool accesses")
			}
			break // the scan walked past the whole operation
		}
		for _, sec := range secondary {
			// Rebuild the identical torn state for each secondary point.
			pool, invoked, _ := buildTornPut(t, primary, key, preload)
			pool.Crash(crashPolicy(primary*1000 + sec))
			pool.Recover()
			if sec > 0 {
				pool.SetCrashAfter(sec)
			}
			var absent bool
			resume := func() {
				r, err := kvstore.Recover(pool, 0)
				if err != nil {
					panic(err)
				}
				rh := r.Handle(pool.NewThread(1))
				if invoked {
					a, err := rh.RecoverPut(key, valueFor(key), 99)
					if err != nil {
						panic(err)
					}
					absent = a
				} else {
					rh.Invoke()
					invoked = true
					a, err := rh.Put(key, valueFor(key), 99)
					if err != nil {
						panic(err)
					}
					absent = a
				}
			}
			if runToCrash(resume) {
				// Depth-2 crash inside recovery: resolve it and replay.
				pool.SetCrashAfter(0)
				pool.Crash(crashPolicy(primary*1000 + sec + 7))
				pool.Recover()
				if runToCrash(resume) {
					t.Fatalf("primary %d sec %d: unarmed recovery crashed", primary, sec)
				}
			}
			pool.SetCrashAfter(0)
			if !absent {
				t.Fatalf("primary %d sec %d: recovered put reported key present", primary, sec)
			}
			r, err := kvstore.Recover(pool, 0) // idempotent re-recovery for the checks
			if err != nil {
				t.Fatalf("primary %d sec %d: %v", primary, sec, err)
			}
			ctx := pool.NewThread(1)
			rh := r.Handle(ctx)
			rh.Invoke()
			if v, ok := rh.Get(key); !ok || v != valueFor(key) {
				t.Fatalf("primary %d sec %d: get = (%d, %v), want (%d, true)", primary, sec, v, ok, valueFor(key))
			}
			for k := int64(1); k <= preload; k++ {
				rh.Invoke()
				if v, ok := rh.Get(k); !ok || v != valueFor(k) {
					t.Fatalf("primary %d sec %d: preloaded key %d = (%d, %v)", primary, sec, k, v, ok)
				}
			}
			if err := r.CheckInvariants(pool.NewThread(2), false); err != nil {
				t.Fatalf("primary %d sec %d: %v", primary, sec, err)
			}
			if err := r.AuditPostRecovery(pool.NewThread(2)); err != nil {
				t.Fatalf("primary %d sec %d: %v", primary, sec, err)
			}
		}
	}
}

// TestCrashMidDeleteWindows is the delete-side window scan: a crash at
// every access of a Delete, then its recovery (or rerun, when the crash
// predated the invocation step) must report the key was present exactly
// once and leave it gone.
func TestCrashMidDeleteWindows(t *testing.T) {
	const key = 501
	for primary := int64(1); ; primary++ {
		pool := newPool(1<<18, 4)
		s, err := kvstore.New(pool, kvstore.Config{Shards: 4, MaxThreads: 4})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handle(pool.NewThread(1))
		for k := int64(1); k <= 10; k++ {
			h.Invoke()
			if _, err := h.Put(k, valueFor(k), kvstore.NoExpiry); err != nil {
				t.Fatal(err)
			}
		}
		h.Invoke()
		if _, err := h.Put(key, valueFor(key), kvstore.NoExpiry); err != nil {
			t.Fatal(err)
		}
		invoked := false
		pool.SetCrashAfter(primary)
		crashed := runToCrash(func() {
			h.Invoke()
			invoked = true
			if _, err := h.Delete(key); err != nil {
				panic(err)
			}
		})
		pool.SetCrashAfter(0)
		if !crashed {
			break
		}
		pool.Crash(crashPolicy(primary))
		pool.Recover()
		r, err := kvstore.Recover(pool, 0)
		if err != nil {
			t.Fatalf("primary %d: %v", primary, err)
		}
		ctx := pool.NewThread(1)
		rh := r.Handle(ctx)
		var present bool
		if invoked {
			present, err = rh.RecoverDelete(key)
		} else {
			rh.Invoke()
			present, err = rh.Delete(key)
		}
		if err != nil {
			t.Fatalf("primary %d: %v", primary, err)
		}
		if !present {
			t.Fatalf("primary %d: recovered delete reported key absent", primary)
		}
		rh.Invoke()
		if _, ok := rh.Get(key); ok {
			t.Fatalf("primary %d: deleted key still readable", primary)
		}
		if err := r.CheckInvariants(pool.NewThread(2), false); err != nil {
			t.Fatalf("primary %d: %v", primary, err)
		}
		if err := r.AuditPostRecovery(pool.NewThread(2)); err != nil {
			t.Fatalf("primary %d: %v", primary, err)
		}
	}
}

// kvThread adapts a kvstore Handle to the chaos harness's set encoding.
type kvThread struct{ h *kvstore.Handle }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (t kvThread) Invoke() { t.h.Invoke() }

func (t kvThread) Run(op chaos.Op) uint64 {
	switch op.Kind {
	case chaos.KindInsert:
		absent, err := t.h.Put(op.Key, valueFor(op.Key), kvstore.NoExpiry)
		if err != nil {
			panic(err)
		}
		return b2u(absent)
	case chaos.KindDelete:
		present, err := t.h.Delete(op.Key)
		if err != nil {
			panic(err)
		}
		return b2u(present)
	default:
		_, ok := t.h.Get(op.Key)
		return b2u(ok)
	}
}

func (t kvThread) Recover(op chaos.Op) uint64 {
	switch op.Kind {
	case chaos.KindInsert:
		absent, err := t.h.RecoverPut(op.Key, valueFor(op.Key), kvstore.NoExpiry)
		if err != nil {
			panic(err)
		}
		return b2u(absent)
	case chaos.KindDelete:
		present, err := t.h.RecoverDelete(op.Key)
		if err != nil {
			panic(err)
		}
		return b2u(present)
	default:
		_, ok := t.h.RecoverGet(op.Key)
		return b2u(ok)
	}
}

// TestChaosRandomCrashes drives the store through the chaos harness:
// random crash points across every operation stage (including the
// tracking engine's internals, which the deterministic window scans
// cannot name), a seeded crash adversary, and the exactly-once
// alternation oracle over the final key set.
func TestChaosRandomCrashes(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		const threads = 4
		pool := newPool(1<<20, threads+2)
		s, err := kvstore.New(pool, kvstore.Config{
			Shards: 8, MaxThreads: threads + 2, SlotsPerShard: 128,
			ChunkBlocks: 64, MaxChunks: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		cur := s
		res, err := chaos.Run(chaos.Config{
			Pool:         pool,
			Threads:      threads,
			OpsPerThread: 150,
			GenOp:        chaos.SetGenOp(48),
			Seed:         seed,
			MaxCrashes:   6,

			MeanAccessesBetweenCrashes: 4000,
			CommitProb:                 0.5,
			EvictProb:                  0.3,
			// Reattach runs both before any crash (fresh store) and after
			// each recovery; Recover handles both states.
			Reattach: func(pool *pmem.Pool) (chaos.ThreadFactory, error) {
				r, err := kvstore.Recover(pool, 0)
				if err != nil {
					return nil, err
				}
				cur = r
				return func(tid int) (chaos.Thread, error) {
					return kvThread{h: r.Handle(pool.NewThread(tid))}, nil
				}, nil
			},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ctx := pool.NewThread(threads + 1)
		finalKeys := cur.Keys(ctx)
		sort.Slice(finalKeys, func(i, j int) bool { return finalKeys[i] < finalKeys[j] })
		if err := chaos.CheckSetAlternation(res.Logs, chaos.SetClassifier, finalKeys); err != nil {
			t.Fatalf("seed %d (%d crashes): %v", seed, res.Crashes, err)
		}
		if err := cur.CheckInvariants(ctx, true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestPutFullShard(t *testing.T) {
	pool := newPool(1<<18, 2)
	s, err := kvstore.New(pool, kvstore.Config{
		Shards: 1, SlotsPerShard: 8, MaxThreads: 2, ChunkBlocks: 16, MaxChunks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handle(pool.NewThread(1))
	var full error
	for k := int64(1); k <= 64; k++ {
		h.Invoke()
		if _, err := h.Put(k, 1, kvstore.NoExpiry); err != nil {
			full = err
			break
		}
	}
	if full == nil {
		t.Fatal("8-slot shard accepted 64 keys")
	}
	if !errors.Is(full, kvstore.ErrFull) {
		t.Fatalf("full shard error = %v, want ErrFull", full)
	}
}

// TestGetAllocatesNothing pins the Get path — sequence-word reads, slot
// probe, value read — to zero heap allocations.
func TestGetAllocatesNothing(t *testing.T) {
	pool := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 18, MaxThreads: 4})
	s, err := kvstore.New(pool, kvstore.Config{Shards: 4, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handle(pool.NewThread(1))
	for k := int64(1); k <= 32; k++ {
		h.Invoke()
		if _, err := h.Put(k, valueFor(k), kvstore.NoExpiry); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		h.Invoke()
		h.Get(7)
		h.Invoke()
		h.Get(99)
	}); n != 0 {
		t.Fatalf("Get allocates %.1f objects per run, want 0", n)
	}
}
