package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/pmem"
)

// Op is one operation request. Kind is structure-specific; Key is its
// argument.
type Op struct {
	Kind int
	Key  int64
}

// OpRecord is a resolved operation with its response and its real-time
// order stamps from a harness-global clock that survives crashes: Invoke
// is taken when the operation is first issued, Return when it finally
// resolves. An operation interrupted by one or more crashes keeps its
// original Invoke stamp and gets its Return stamp when its recovery
// function produces the response, so the (Invoke, Return) interval spans
// the crashes — exactly the window within which a detectably recovered
// operation must linearize.
type OpRecord struct {
	Op     Op
	Result uint64
	Invoke int64
	Return int64
}

// Thread is the per-thread face of a recoverable structure under test.
type Thread interface {
	// Invoke performs the system-side failure-atomic invocation step of
	// the next operation (CP := 0).
	Invoke()
	// Run executes op to completion and returns its response.
	Run(op Op) uint64
	// Recover is op's recovery function: it completes or re-invokes the
	// interrupted op and returns its response.
	Recover(op Op) uint64
}

// ThreadFactory creates the Thread handle for a (resurrected) thread id.
type ThreadFactory func(tid int) (Thread, error)

// Config parameterizes a chaos run.
type Config struct {
	Pool *pmem.Pool
	// Threads is the number of concurrent worker threads. Thread ids
	// 1..Threads are used (0 is conventionally the setup thread).
	Threads int
	// OpsPerThread is each worker's operation quota.
	OpsPerThread int
	// GenOp produces the i-th operation of a thread.
	GenOp func(rng *rand.Rand, tid, i int) Op
	// Reattach rebuilds structure handles after pool recovery.
	Reattach func(pool *pmem.Pool) (ThreadFactory, error)
	// Seed drives op generation, crash points and the crash adversary.
	Seed int64
	// MaxCrashes bounds the number of injected crashes.
	MaxCrashes int
	// MeanAccessesBetweenCrashes controls crash frequency, measured in
	// pool accesses across all threads.
	MeanAccessesBetweenCrashes int
	// CommitProb and EvictProb parameterize the crash adversary.
	CommitProb, EvictProb float64
}

// Result reports what a chaos run did.
type Result struct {
	// Logs[t] holds thread t+1's resolved operations in issue order.
	Logs [][]OpRecord
	// Crashes is the number of crashes injected.
	Crashes int
}

// workerState is a thread's volatile progress, owned by the harness (the
// "system" survives crashes; the simulated thread's memory does not).
type workerState struct {
	ops       []Op
	log       []OpRecord
	idx       int
	invoked   bool  // current op passed its invocation step
	curInvoke int64 // Invoke stamp of the in-flight op (0 = none)
}

// Schedule is the harness-owned volatile state of one fixed workload: the
// per-thread operation sequences, each thread's progress through them, and
// the crash-surviving global clock stamping the records. The "system"
// (this struct) survives crashes; the simulated threads' memory does not.
// Run drives one with randomized crash points; callers that inject their
// own (the site sweep) drive a Schedule directly.
type Schedule struct {
	states []*workerState
	clock  atomic.Int64
	step   *lockstep // nil: threads run freely
}

// NewSchedule generates the workload: thread t+1 runs opsPerThread
// operations drawn from genOp with a seed derived only from seed and t, so
// schedules are reproducible independently of execution order.
func NewSchedule(threads, opsPerThread int, seed int64, genOp func(rng *rand.Rand, tid, i int) Op) *Schedule {
	s := &Schedule{states: make([]*workerState, threads)}
	for t := range s.states {
		st := &workerState{}
		opRng := rand.New(rand.NewSource(seed + int64(100+t)))
		for i := 0; i < opsPerThread; i++ {
			st.ops = append(st.ops, genOp(opRng, t+1, i))
		}
		s.states[t] = st
	}
	return s
}

// Resume runs every thread concurrently from its recorded progress until
// it finishes its quota or parks on a crash (pmem.ErrCrashed). After a
// crash the caller recovers the pool, rebuilds the factory, and calls
// Resume again; interrupted operations re-enter via Thread.Recover.
// With Lockstep set the threads take turns instead of running freely.
func (s *Schedule) Resume(factory ThreadFactory) error {
	var wg sync.WaitGroup
	errs := make([]error, len(s.states))
	if s.step != nil {
		s.step.begin(len(s.states))
		defer s.step.end()
	}
	for t := range s.states {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			if s.step != nil {
				s.step.enter(t)
				defer s.step.exit(t)
			}
			errs[t] = runWorker(s.states[t], t+1, factory, &s.clock)
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Lockstep makes every later Resume run the threads one at a time, taking
// turns at each persistence instruction and spin-wait hint, so that a
// multi-threaded schedule replays exactly like a single-threaded one. It
// attaches the turn-taking as pool's telemetry sink, forwarding every
// callback to inner (which may be nil); call it before creating the
// threads' contexts, and leave the sink in place while the schedule runs.
func (s *Schedule) Lockstep(pool *pmem.Pool, inner pmem.TelemetrySink) {
	s.step = newLockstep(inner)
	pool.SetTelemetrySink(s.step)
}

// Done reports whether every thread has resolved its full quota.
func (s *Schedule) Done() bool {
	for _, st := range s.states {
		if st.idx < len(st.ops) {
			return false
		}
	}
	return true
}

// Logs returns the per-thread logs (thread t+1 at index t). The slices
// alias the schedule's own state; read them only after the run settles.
func (s *Schedule) Logs() [][]OpRecord {
	out := make([][]OpRecord, len(s.states))
	for t, st := range s.states {
		out[t] = st.log
	}
	return out
}

// Run executes the chaos schedule and returns the per-thread logs.
func Run(cfg Config) (*Result, error) {
	if cfg.Pool.Mode() != pmem.ModeStrict {
		return nil, fmt.Errorf("chaos: pool must be in ModeStrict")
	}
	if cfg.Threads <= 0 || cfg.OpsPerThread <= 0 {
		return nil, fmt.Errorf("chaos: Threads and OpsPerThread must be positive")
	}
	if cfg.MeanAccessesBetweenCrashes <= 0 {
		cfg.MeanAccessesBetweenCrashes = 2000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	policyRng := rand.New(rand.NewSource(cfg.Seed + 1))

	sched := NewSchedule(cfg.Threads, cfg.OpsPerThread, cfg.Seed, cfg.GenOp)

	factory, err := cfg.Reattach(cfg.Pool)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	for round := 0; ; round++ {
		if round > cfg.MaxCrashes+1 {
			return nil, fmt.Errorf("chaos: runaway round count (crash trigger leak?)")
		}
		if res.Crashes < cfg.MaxCrashes {
			cfg.Pool.SetCrashAfter(int64(rng.Intn(2*cfg.MeanAccessesBetweenCrashes) + 1))
		}

		err := sched.Resume(factory)
		cfg.Pool.SetCrashAfter(0)
		if err != nil {
			return nil, err
		}

		if !cfg.Pool.CrashPending() {
			break
		}
		cfg.Pool.Crash(pmem.CrashPolicy{
			Rng:        policyRng,
			CommitProb: cfg.CommitProb,
			EvictProb:  cfg.EvictProb,
		})
		cfg.Pool.Recover()
		res.Crashes++
		factory, err = cfg.Reattach(cfg.Pool)
		if err != nil {
			return nil, err
		}
	}

	res.Logs = sched.Logs()
	return res, nil
}

// runWorker resumes a thread's schedule until it finishes its quota or a
// crash parks it.
func runWorker(st *workerState, tid int, factory ThreadFactory, clock *atomic.Int64) (err error) {
	if st.idx >= len(st.ops) {
		return nil
	}
	th, err := factory(tid)
	if err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			if r != pmem.ErrCrashed {
				panic(r)
			}
			// Parked; st.idx/st.invoked already reflect the progress.
		}
	}()
	for st.idx < len(st.ops) {
		op := st.ops[st.idx]
		if st.curInvoke == 0 {
			st.curInvoke = clock.Add(1)
		}
		var got uint64
		if st.invoked {
			// This op's invocation step completed before a crash:
			// the system calls the recovery function.
			got = th.Recover(op)
		} else {
			th.Invoke()
			st.invoked = true
			got = th.Run(op)
		}
		st.log = append(st.log, OpRecord{Op: op, Result: got, Invoke: st.curInvoke, Return: clock.Add(1)})
		st.idx++
		st.invoked = false
		st.curInvoke = 0
	}
	return nil
}

// Classifier maps a resolved operation to a set-semantics effect:
// delta +1 for a successful insert of key, -1 for a successful delete,
// 0 otherwise.
type Classifier func(rec OpRecord) (key int64, delta int)

// CheckSetAlternation validates detectable exactly-once set semantics: for
// every key, the number of successful inserts minus successful deletes must
// be 0 or 1 and equal the key's membership in finalKeys. Any duplicated or
// lost effect (an operation applied twice, or applied but reported failed)
// breaks the alternation and is reported.
func CheckSetAlternation(logs [][]OpRecord, classify Classifier, finalKeys []int64) error {
	net := map[int64]int{}
	ins := map[int64]int{}
	del := map[int64]int{}
	for _, log := range logs {
		for _, rec := range log {
			key, delta := classify(rec)
			switch {
			case delta > 0:
				ins[key]++
				net[key]++
			case delta < 0:
				del[key]++
				net[key]--
			}
		}
	}
	present := map[int64]bool{}
	for _, k := range finalKeys {
		if present[k] {
			return fmt.Errorf("chaos: key %d appears twice in the final structure", k)
		}
		present[k] = true
	}
	for k, n := range net {
		if n != 0 && n != 1 {
			return fmt.Errorf("chaos: key %d has %d successful inserts vs %d deletes (net %d)",
				k, ins[k], del[k], n)
		}
		if (n == 1) != present[k] {
			return fmt.Errorf("chaos: key %d net effect %d but present=%v", k, n, present[k])
		}
	}
	for k := range present {
		if net[k] != 1 {
			return fmt.Errorf("chaos: key %d present but net effect %d", k, net[k])
		}
	}
	return nil
}
