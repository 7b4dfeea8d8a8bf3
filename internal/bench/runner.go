package bench

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/pmem"
)

// Runner is a prepared benchmark instance for testing.B-style measurement:
// the pool is built, the structure created and preloaded, and the site
// switches armed, so RunOps measures only the operation phase.
type Runner struct {
	cfg  Config
	inst *instance
	base pmem.Stats
}

// Prepare builds a Runner for cfg (Duration is ignored; RunOps drives the
// length).
func Prepare(cfg Config) (*Runner, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Workload.KeyRange == 0 {
		cfg.Workload = ReadIntensive()
	}
	inst, err := build(cfg)
	if err != nil {
		return nil, err
	}
	applySiteConfig(inst.pool, cfg)
	pre := inst.runner(0)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, key := range preloadKeys(cfg.Workload, rng) {
		pre.Insert(key)
	}
	// Telemetry attaches after the preload so the registry, like base,
	// sees only the measured phase.
	if cfg.Telemetry != nil {
		cfg.Telemetry.AttachPool(inst.pool)
	}
	return &Runner{cfg: cfg, inst: inst, base: inst.pool.Snapshot()}, nil
}

// splitmix64 advances and hashes a 64-bit state (Steele et al., the
// SplitMix64 finalizer). Used to derive independent per-thread seeds from
// one user seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// threadSeed derives the RNG seed for stream idx from the run seed. The
// previous scheme (seed + tid·7919) kept derived seeds within a few
// thousand of each other, and math/rand's lagged-Fibonacci seeding maps
// nearby seeds to visibly correlated streams — two threads walked
// correlated key sequences. Hashing through splitmix64 decorrelates every
// stream.
func threadSeed(seed int64, idx int) int64 {
	return int64(splitmix64(uint64(seed) + uint64(idx)*0x9e3779b97f4a7c15))
}

// preloadKeys returns the keys to preload for w: w.Preload distinct keys
// drawn uniformly from [1, w.KeyRange] (a partial Fisher-Yates shuffle), in
// a deterministic order given rng. The previous preload drew keys with
// replacement, so collisions made actual occupancy undershoot the
// configured count — by ~21% in expectation at Preload = KeyRange/2,
// approaching 1/e·Preload as Preload nears KeyRange — silently lightening
// every "half-full" workload. Requests beyond KeyRange clamp to a full
// structure.
func preloadKeys(w Workload, rng *rand.Rand) []int64 {
	n := w.Preload
	if int64(n) > w.KeyRange {
		n = int(w.KeyRange)
	}
	if n <= 0 {
		return nil
	}
	keys := make([]int64, w.KeyRange)
	for i := range keys {
		keys[i] = int64(i) + 1
	}
	for i := 0; i < n; i++ {
		j := i + int(rng.Int63n(int64(len(keys)-i)))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys[:n]
}

// opBatch is the number of operations a worker claims from the shared
// countdown at a time, bounding the countdown's cache-line traffic.
const opBatch = 8

// RunOps executes exactly n operations spread over the configured threads
// with the configured mix, and returns the number executed. The count
// matters: workers claim operations in batches, and the final short batch
// is trimmed to the claim, so callers deriving per-operation figures can
// rely on the return value matching the work actually done. (The previous
// scheme let every thread that saw a positive countdown run a full batch,
// overshooting n by up to opBatch*Threads-1 operations while callers still
// divided by n.)
func (r *Runner) RunOps(n int) int {
	remaining := atomic.Int64{}
	remaining.Store(int64(n))
	var executed atomic.Int64
	var wg sync.WaitGroup
	for t := 1; t <= r.cfg.Threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			run := r.inst.runner(tid)
			rng := rand.New(rand.NewSource(threadSeed(r.cfg.Seed, tid)))
			for {
				before := remaining.Add(-opBatch) + opBatch
				if before <= 0 {
					return
				}
				todo := int64(opBatch)
				if before < todo {
					todo = before
				}
				for i := int64(0); i < todo; i++ {
					runOne(run, rng, &r.cfg, tid)
					runtime.Gosched()
				}
				executed.Add(todo)
			}
		}(t)
	}
	wg.Wait()
	return int(executed.Load())
}

// Stats returns the persistence counters accumulated by RunOps so far:
// the delta between the pool's current snapshot and the post-preload
// baseline. Stats.Sub keeps the delta well-formed — only sites with
// activity appear, and counters can never underflow — where the previous
// in-place subtraction left stale zero entries for idle sites, wrapped
// around on keys whose base exceeded the snapshot, and silently kept
// absolute values for keys the base never saw.
func (r *Runner) Stats() pmem.Stats {
	return r.inst.pool.Snapshot().Sub(r.base)
}
