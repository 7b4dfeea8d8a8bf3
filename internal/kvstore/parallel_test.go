package kvstore_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/recovery"
	"repro/internal/telemetry"
)

// buildCrashedStore deterministically constructs a crashed store: one
// thread performs seeded put/delete/get churn across all shards until an
// armed crash parks it, then the crash is resolved under a seeded
// adversary. Everything is a pure function of seed, so calling it twice
// yields byte-identical pools.
func buildCrashedStore(t *testing.T, seed int64) *pmem.Pool {
	t.Helper()
	pool := newPool(1<<19, 16)
	s, err := kvstore.New(pool, kvstore.Config{
		Shards: 8, MaxThreads: 16, SlotsPerShard: 128, ChunkBlocks: 32, MaxChunks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pool.SetCrashAfter(int64(500 + rng.Intn(8000)))
	crashed := runToCrash(func() {
		h := s.Handle(pool.NewThread(1))
		for {
			key := rng.Int63n(96) + 1
			h.Invoke()
			switch rng.Intn(4) {
			case 0:
				if _, err := h.Delete(key); err != nil {
					panic(err)
				}
			case 1:
				h.Get(key)
			default:
				if _, err := h.Put(key, valueFor(key)+uint64(rng.Intn(8)), kvstore.NoExpiry); err != nil {
					panic(err)
				}
			}
		}
	})
	if !crashed {
		t.Fatalf("seed %d: churn finished without crashing", seed)
	}
	pool.Crash(crashPolicy(seed*13 + 5))
	pool.Recover()
	return pool
}

// TestRecoverSerialParallelIdentical rebuilds the same 100 seeded crash
// states twice and checks that Recover and RecoverParallel leave
// byte-identical durable memory, agree on the recovered key set, and
// issue identical persistence-instruction counts.
func TestRecoverSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("100-seed equivalence scan")
	}
	for seed := int64(0); seed < 100; seed++ {
		poolS := buildCrashedStore(t, seed)
		poolP := buildCrashedStore(t, seed)

		sS, err := kvstore.Recover(poolS, 0)
		if err != nil {
			t.Fatalf("seed %d: serial recover: %v", seed, err)
		}
		eng := recovery.New(recovery.Config{Workers: 4, BaseTID: 8})
		sP, err := kvstore.RecoverParallel(poolP, 0, eng)
		if err != nil {
			t.Fatalf("seed %d: parallel recover: %v", seed, err)
		}

		rS, rP := sS.LastRecovery(), sP.LastRecovery()
		if rS != rP {
			t.Fatalf("seed %d: recovery stats differ: %+v (serial) vs %+v (parallel)", seed, rS, rP)
		}
		keysS := sS.Keys(poolS.NewThread(1))
		keysP := sP.Keys(poolP.NewThread(1))
		sort.Slice(keysS, func(i, j int) bool { return keysS[i] < keysS[j] })
		sort.Slice(keysP, func(i, j int) bool { return keysP[i] < keysP[j] })
		if len(keysS) != len(keysP) {
			t.Fatalf("seed %d: %d keys (serial) vs %d (parallel)", seed, len(keysS), len(keysP))
		}
		for i := range keysS {
			if keysS[i] != keysP[i] {
				t.Fatalf("seed %d: key sets diverge at %d: %d vs %d", seed, i, keysS[i], keysP[i])
			}
		}
		if err := sS.CheckInvariants(poolS.NewThread(1), false); err != nil {
			t.Fatalf("seed %d: serial invariants: %v", seed, err)
		}
		if err := sP.CheckInvariants(poolP.NewThread(1), false); err != nil {
			t.Fatalf("seed %d: parallel invariants: %v", seed, err)
		}
		if err := sS.AuditPostRecovery(poolS.NewThread(1)); err != nil {
			t.Fatalf("seed %d: serial audit: %v", seed, err)
		}
		if err := sP.AuditPostRecovery(poolP.NewThread(1)); err != nil {
			t.Fatalf("seed %d: parallel audit: %v", seed, err)
		}

		words := poolS.AllocatedWords()
		if wp := poolP.AllocatedWords(); wp != words {
			t.Fatalf("seed %d: allocated words %d vs %d", seed, words, wp)
		}
		for w := 1; w < words; w++ { // word 0 is the reserved Null address
			addr := pmem.Addr(w * pmem.WordSize)
			if vS, vP := poolS.DurableLoad(addr), poolP.DurableLoad(addr); vS != vP {
				t.Fatalf("seed %d: durable word %d differs: %#x (serial) vs %#x (parallel)", seed, w, vS, vP)
			}
		}
	}
}

// versioned encodes a key and a per-key version into one value, so a
// reader can tell whose value it read and how recent it is.
func versioned(key int64, ver uint64) uint64 { return uint64(key)<<32 | ver }

// checkVersioned validates one Get of key against the last version the
// caller saw for it and returns the version read (last when absent).
func checkVersioned(key int64, v uint64, ok bool, last uint64) (uint64, error) {
	if !ok {
		return last, nil
	}
	if got := int64(v >> 32); got != key {
		return last, fmt.Errorf("get %d returned a value of key %d", key, got)
	}
	ver := v & (1<<32 - 1)
	if ver < last {
		return last, fmt.Errorf("get %d went back from version %d to %d", key, last, ver)
	}
	return ver, nil
}

// TestOptimisticGetStress races lock-free Gets against writers that
// overwrite, delete and re-insert a small hot key set on one densely
// filled shard (long probe chains), so value blocks are freed and reused
// under the readers. Every key has one writer, which bumps its version on
// each Put, so a reader must see per key either absent or the key's own
// value at a version no older than the last it saw, and never absent for
// a key no writer deletes. Taking out Get's second load of the shard
// sequence word lets a reader return a value read from a block already
// recycled for another key, or miss a key whose slot it read before the
// block was recycled; this test then fails (15 runs in 20 on a 2-core
// x86-64 host; the race is timing-dependent).
func TestOptimisticGetStress(t *testing.T) {
	const (
		writers       = 3
		readers       = 2
		keysPerWriter = 6 // even offsets are only overwritten, odd ones also deleted
		nKeys         = writers * keysPerWriter
		writerOps     = 20000
	)
	stable := func(key int64) bool { return (key-1)%keysPerWriter%2 == 0 }
	pool := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 20, MaxThreads: writers + readers + 1})
	s, err := kvstore.New(pool, kvstore.Config{
		Shards: 1, MaxThreads: writers + readers + 1, SlotsPerShard: 32, ChunkBlocks: 16, MaxChunks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	boot := s.Handle(pool.NewThread(0))
	for key := int64(1); key <= nKeys; key++ {
		if stable(key) {
			boot.Invoke()
			if _, err := boot.Put(key, versioned(key, 1), kvstore.NoExpiry); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Writers start once every reader runs, and run long enough for the
	// scheduler to preempt readers inside Get many times: a reader parked
	// between two of its loads is what recycled blocks catch. Deletes are
	// rare because every index update allocates pool memory for good,
	// while overwrites recycle value blocks through the allocator.
	var stop atomic.Bool
	var wg, rg, started sync.WaitGroup
	started.Add(readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			started.Wait()
			h := s.Handle(pool.NewThread(1 + w))
			defer h.Flush()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			ver := make(map[int64]uint64)
			present := make(map[int64]bool)
			for i := 0; i < keysPerWriter; i++ {
				key := int64(w*keysPerWriter + i + 1)
				if stable(key) {
					ver[key], present[key] = 1, true
				}
			}
			for op := 0; op < writerOps; op++ {
				key := int64(w*keysPerWriter + rng.Intn(keysPerWriter) + 1)
				h.Invoke()
				if present[key] && !stable(key) && rng.Intn(32) == 0 {
					if ok, err := h.Delete(key); err != nil || !ok {
						t.Errorf("writer %d: delete %d = (%v, %v)", w, key, ok, err)
						return
					}
					present[key] = false
					continue
				}
				ver[key]++
				if _, err := h.Put(key, versioned(key, ver[key]), kvstore.NoExpiry); err != nil {
					t.Errorf("writer %d: put %d: %v", w, key, err)
					return
				}
				present[key] = true
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			h := s.Handle(pool.NewThread(1 + writers + r))
			rng := rand.New(rand.NewSource(int64(r) + 100))
			last := make([]uint64, nKeys+1)
			started.Done()
			for !stop.Load() {
				key := rng.Int63n(nKeys) + 1
				h.Invoke()
				v, ok := h.Get(key)
				if !ok && stable(key) {
					t.Errorf("reader %d: key %d, never deleted, read absent", r, key)
					return
				}
				ver, err := checkVersioned(key, v, ok, last[key])
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				last[key] = ver
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	if err := s.CheckInvariants(pool.NewThread(0), true); err != nil {
		t.Fatal(err)
	}
}

// TestGetDuringCrash arms a strict-mode crash at a writer's k-th slot
// publish — inside its write section on the one shard a concurrent Get
// loop reads — for several k. The reader must not spin forever: it ends
// by panicking with ErrCrashed. Every Get it completed must have returned
// a version the writer had already committed, never older than the last
// it saw, and after recovery the key holds the last committed version or
// the interrupted one.
func TestGetDuringCrash(t *testing.T) {
	const key = 7
	for k := int64(1); k <= 12; k++ {
		pool := newPool(1<<18, 4)
		s, err := kvstore.New(pool, kvstore.Config{Shards: 1, MaxThreads: 4})
		if err != nil {
			t.Fatal(err)
		}
		w := s.Handle(pool.NewThread(1))
		w.Invoke()
		if _, err := w.Put(key, versioned(key, 1), kvstore.NoExpiry); err != nil {
			t.Fatal(err)
		}
		var (
			committed  uint64 = 1 // written by the writer only
			readerMax  uint64
			readerErr  error
			firstRead  = make(chan struct{})
			crashed    = make(chan bool, 2)
			readerDone = make(chan struct{})
		)
		go func() {
			defer close(readerDone)
			r := s.Handle(pool.NewThread(2))
			signalled := false
			crashed <- runToCrash(func() {
				for {
					r.Invoke()
					v, ok := r.Get(key)
					if !ok {
						readerErr = fmt.Errorf("key %d read absent", key)
						return
					}
					ver, err := checkVersioned(key, v, ok, readerMax)
					if err != nil {
						readerErr = err
						return
					}
					readerMax = ver
					if !signalled {
						signalled = true
						close(firstRead)
					}
				}
			})
		}()
		select {
		case <-firstRead:
		case <-readerDone:
			t.Fatalf("k=%d: reader stopped before the writer started: %v", k, readerErr)
		}
		pool.SetCrashAtSite(pool.RegisterSite("kvstore/pwb-slot"), k)
		crashed <- runToCrash(func() {
			for ver := uint64(2); ; ver++ {
				w.Invoke()
				if _, err := w.Put(key, versioned(key, ver), kvstore.NoExpiry); err != nil {
					panic(err)
				}
				committed = ver
			}
		})
		select {
		case <-readerDone:
		case <-time.After(30 * time.Second):
			t.Fatalf("k=%d: reader still running 30s after the crash", k)
		}
		if readerErr != nil {
			t.Fatalf("k=%d: %v", k, readerErr)
		}
		if !<-crashed || !<-crashed {
			t.Fatalf("k=%d: a thread finished without crashing", k)
		}
		if readerMax > committed {
			t.Fatalf("k=%d: reader returned version %d, writer committed only %d", k, readerMax, committed)
		}
		pool.SetCrashAtSite(-1, 0)
		pool.Crash(crashPolicy(k))
		pool.Recover()
		rs, err := kvstore.Recover(pool, 0)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		rh := rs.Handle(pool.NewThread(1))
		rh.Invoke()
		v, ok := rh.Get(key)
		ver, err := checkVersioned(key, v, ok, readerMax)
		if err != nil || !ok || ver > committed+1 || ver < committed {
			t.Fatalf("k=%d: recovered get = (%#x, %v), committed %d, reader saw %d: %v",
				k, v, ok, committed, readerMax, err)
		}
		if err := rs.CheckInvariants(pool.NewThread(2), true); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestOpCounters issues a known operation mix from two handles on
// different thread ids at once and checks that ShardOps and the
// kvstore-puts/gets/deletes/cas gauges sum both threads' tallies exactly,
// then that a recovered store counts from zero again.
func TestOpCounters(t *testing.T) {
	type counts struct {
		puts, gets, deletes, cas uint64
		shard                    []uint64
	}
	// issue runs the mix over keys base+1..base+n from one handle and
	// returns what it issued.
	issue := func(s *kvstore.Store, h *kvstore.Handle, base int64, n int) (c counts, err error) {
		c.shard = make([]uint64, s.NumShards())
		for key := base + 1; key <= base+int64(n); key++ {
			si := s.ShardOf(key)
			h.Invoke()
			if _, err := h.Put(key, valueFor(key), kvstore.NoExpiry); err != nil {
				return c, err
			}
			h.Invoke()
			if _, err := h.Put(key, valueFor(key)+1, kvstore.NoExpiry); err != nil {
				return c, err
			}
			c.puts += 2
			h.Invoke()
			h.Get(key)
			h.Invoke()
			h.Get(-key) // absent
			c.gets += 2
			h.Invoke()
			if _, err := h.CAS(key, valueFor(key)+1, 3); err != nil {
				return c, err
			}
			c.cas++
			c.shard[si] += 4
			c.shard[s.ShardOf(-key)]++
			if key%3 == 0 {
				h.Invoke()
				if _, err := h.Delete(key); err != nil {
					return c, err
				}
				c.deletes++
				c.shard[si]++
			}
		}
		return c, nil
	}
	// run issues the mix from thread ids 1 and 2 concurrently and checks
	// the store's counters against the sum.
	run := func(pool *pmem.Pool, s *kvstore.Store, label string) {
		var (
			wg   sync.WaitGroup
			got  [2]counts
			errs [2]error
		)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				h := s.Handle(pool.NewThread(1 + i))
				got[i], errs[i] = issue(s, h, int64(1000*i), 40)
				h.Flush()
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		reg := telemetry.NewRegistry(telemetry.Config{})
		s.PublishTelemetry(reg)
		gauges := map[string]uint64{}
		for _, g := range reg.Snapshot().Gauges {
			gauges[g.Name] = g.Value
		}
		for name, want := range map[string]uint64{
			"kvstore-puts":    got[0].puts + got[1].puts,
			"kvstore-gets":    got[0].gets + got[1].gets,
			"kvstore-deletes": got[0].deletes + got[1].deletes,
			"kvstore-cas":     got[0].cas + got[1].cas,
		} {
			if gauges[name] != want {
				t.Errorf("%s: %s = %d, want %d", label, name, gauges[name], want)
			}
		}
		for si := 0; si < s.NumShards(); si++ {
			want := got[0].shard[si] + got[1].shard[si]
			if n := s.ShardOps(si); n != want {
				t.Errorf("%s: ShardOps(%d) = %d, want %d", label, si, n, want)
			}
			if g := gauges[fmt.Sprintf("kvstore-shard-%03d-ops", si)]; g != want {
				t.Errorf("%s: shard %d gauge = %d, want %d", label, si, g, want)
			}
		}
	}

	pool := newPool(1<<18, 4)
	s, err := kvstore.New(pool, kvstore.Config{Shards: 4, MaxThreads: 4, SlotsPerShard: 128})
	if err != nil {
		t.Fatal(err)
	}
	run(pool, s, "fresh store")
	pool.TriggerCrash()
	pool.Crash(pmem.CrashPolicy{})
	pool.Recover()
	r, err := kvstore.Recover(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	for si := 0; si < r.NumShards(); si++ {
		if n := r.ShardOps(si); n != 0 {
			t.Fatalf("recovered store: ShardOps(%d) = %d, want 0", si, n)
		}
	}
	run(pool, r, "recovered store")
}
