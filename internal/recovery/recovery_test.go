package recovery_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/pmem"
	"repro/internal/recovery"
)

func newPool() *pmem.Pool {
	return pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 12, MaxThreads: 32})
}

func newEngine(workers int) *recovery.Engine {
	return recovery.New(recovery.Config{Workers: workers, BaseTID: 8})
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	const n = 1000
	pool := newPool()
	eng := newEngine(4)
	hits := make([]int32, n)
	var finishes atomic.Int32
	err := eng.For(pool, recovery.PhaseAttach, n,
		func(_ *pmem.ThreadCtx, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		},
		func(_ *pmem.ThreadCtx) error {
			finishes.Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	if got := finishes.Load(); got != 4 {
		t.Fatalf("finish ran %d times, want 4", got)
	}
	st := eng.Stats()["attach"]
	if st.Items != n {
		t.Fatalf("Items = %d, want %d", st.Items, n)
	}
	if st.SpanItems < n/4 || st.SpanItems >= n {
		t.Fatalf("SpanItems = %d, want balanced share in [%d, %d)", st.SpanItems, n/4, n)
	}
}

func TestForAssignmentDeterministic(t *testing.T) {
	const n = 333
	assign := func() []int {
		pool := newPool()
		eng := newEngine(4)
		out := make([]int, n)
		if err := eng.For(pool, recovery.PhaseAttach, n,
			func(ctx *pmem.ThreadCtx, i int) error {
				out[i] = ctx.TID()
				return nil
			}, nil); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := assign(), assign()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d assigned to tid %d then %d; static partitioning must be deterministic", i, a[i], b[i])
		}
	}
}

func TestForPropagatesError(t *testing.T) {
	pool := newPool()
	eng := newEngine(4)
	boom := errors.New("boom")
	err := eng.For(pool, recovery.PhaseVerify, 100,
		func(_ *pmem.ThreadCtx, i int) error {
			if i == 57 {
				return fmt.Errorf("at %d: %w", i, boom)
			}
			return nil
		}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestForConvertsPanic(t *testing.T) {
	pool := newPool()
	eng := newEngine(2)
	err := eng.For(pool, recovery.PhaseVerify, 10,
		func(_ *pmem.ThreadCtx, i int) error {
			if i == 3 {
				panic("kaboom")
			}
			return nil
		}, nil)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want worker-panicked error", err)
	}
}

func TestForPassesThroughErrCrashed(t *testing.T) {
	pool := newPool()
	eng := newEngine(2)
	err := eng.For(pool, recovery.PhaseAttach, 10,
		func(_ *pmem.ThreadCtx, i int) error {
			panic(pmem.ErrCrashed)
		}, nil)
	if !errors.Is(err, pmem.ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed passthrough", err)
	}
}

func TestReplayThreadsCoversEveryTid(t *testing.T) {
	eng := newEngine(3)
	const n = 17
	hits := make([]int32, n)
	err := eng.ReplayThreads(n, func(tid int) error {
		atomic.AddInt32(&hits[tid], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for tid, h := range hits {
		if h != 1 {
			t.Fatalf("tid %d replayed %d times", tid, h)
		}
	}
	if st := eng.Stats()["replay"]; st.Items != n {
		t.Fatalf("replay Items = %d, want %d", st.Items, n)
	}
}

func TestTimingsAndReset(t *testing.T) {
	pool := newPool()
	eng := newEngine(2)
	if err := eng.For(pool, recovery.PhaseVerify, 50,
		func(*pmem.ThreadCtx, int) error { return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if st, ok := eng.Stats()["verify"]; !ok || st.WallNs <= 0 || st.Items != 50 {
		t.Fatalf("verify phase stats = %+v (present %v), want a timed phase of 50 items", st, ok)
	}
	eng.ResetTimings()
	if len(eng.Stats()) != 0 {
		t.Fatalf("ResetTimings left stats=%v", eng.Stats())
	}
}

func TestDefaultWorkers(t *testing.T) {
	eng := recovery.New(recovery.Config{})
	if w := eng.Workers(); w < 1 || w > 8 {
		t.Fatalf("default workers = %d, want in [1, 8]", w)
	}
}
