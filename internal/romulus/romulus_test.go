package romulus

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/pmem"
)

func newListTM(t testing.TB, mode pmem.Mode) (*pmem.Pool, *TM, *List) {
	t.Helper()
	pool := pmem.New(pmem.Config{Mode: mode, CapacityWords: 1 << 20, MaxThreads: 16})
	tm := NewTM(pool, 1<<15, 16, 0)
	l := NewList(tm, pool.NewThread(0))
	return pool, tm, l
}

func TestBasicOps(t *testing.T) {
	pool, tm, l := newListTM(t, pmem.ModeStrict)
	ctx := pool.NewThread(1)
	seq := tm.Invoke(ctx)
	if !l.Insert(ctx, seq, 5) {
		t.Fatal("Insert(5) failed")
	}
	if l.Insert(ctx, tm.Invoke(ctx), 5) {
		t.Fatal("duplicate insert succeeded")
	}
	if !l.Find(ctx, 5) || l.Find(ctx, 6) {
		t.Fatal("find broken")
	}
	if !l.Delete(ctx, tm.Invoke(ctx), 5) || l.Delete(ctx, tm.Invoke(ctx), 5) {
		t.Fatal("delete broken")
	}
}

func TestQuickModelEquivalence(t *testing.T) {
	f := func(ops []uint16) bool {
		pool, tm, l := newListTM(t, pmem.ModeStrict)
		ctx := pool.NewThread(1)
		model := map[int64]bool{}
		for _, o := range ops {
			key := int64(o%40) + 1
			switch o % 3 {
			case 0:
				if l.Insert(ctx, tm.Invoke(ctx), key) != !model[key] {
					return false
				}
				model[key] = true
			case 1:
				if l.Delete(ctx, tm.Invoke(ctx), key) != model[key] {
					return false
				}
				delete(model, key)
			default:
				if l.Find(ctx, key) != model[key] {
					return false
				}
			}
		}
		keys := l.Keys(ctx)
		if len(keys) != len(model) {
			return false
		}
		for _, k := range keys {
			if !model[k] {
				return false
			}
		}
		return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(19))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	pool, tm, l := newListTM(t, pmem.ModeFast)
	const threads = 4
	var wg sync.WaitGroup
	for tid := 1; tid <= threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ctx := pool.NewThread(tid)
			base := int64(tid * 1000)
			for i := int64(0); i < 50; i++ {
				if !l.Insert(ctx, tm.Invoke(ctx), base+i) {
					t.Errorf("insert %d failed", base+i)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	ctx := pool.NewThread(0)
	if got := len(l.Keys(ctx)); got != threads*50 {
		t.Fatalf("len(Keys) = %d, want %d", got, threads*50)
	}
}

// TestCrashRecovery exercises the three crash windows: before the commit
// point (roll back), between commit and back-copy (roll forward), and at
// idle.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point sweep is slow under -race/-short")
	}
	for crashAt := int64(1); ; crashAt++ {
		if crashAt > 20000 {
			t.Fatal("script never completed crash-free")
		}
		pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 20, MaxThreads: 4})
		tm := NewTM(pool, 1<<12, 4, 0)
		l := NewList(tm, pool.NewThread(0))
		model := map[int64]bool{}
		keys := []int64{5, 9, 5, 2, 9}
		kinds := []int{0, 0, 1, 0, 1} // insert, insert, delete, insert, delete
		crashed := false
		idx, invoked := -1, false

		pool.SetCrashAfter(crashAt)
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != pmem.ErrCrashed {
						panic(r)
					}
					crashed = true
				}
			}()
			ctx := pool.NewThread(1)
			for i := range keys {
				idx, invoked = i, false
				seq := tm.Invoke(ctx)
				invoked = true
				var got, want bool
				switch kinds[i] {
				case 0:
					got = l.Insert(ctx, seq, keys[i])
					want = !model[keys[i]]
					model[keys[i]] = true
				default:
					got = l.Delete(ctx, seq, keys[i])
					want = model[keys[i]]
					delete(model, keys[i])
				}
				if got != want {
					t.Fatalf("crashAt=%d op %d: got %v want %v", crashAt, i, got, want)
				}
			}
		}()
		pool.SetCrashAfter(0)
		if !crashed {
			break
		}
		pool.Crash(pmem.CrashPolicy{Rng: rand.New(rand.NewSource(crashAt)), CommitProb: 0.5, EvictProb: 0.1})
		pool.Recover()
		tm2, err := AttachTM(pool, 0)
		if err != nil {
			t.Fatal(err)
		}
		l2 := AttachList(tm2)
		ctx := pool.NewThread(1)

		// Resolve the interrupted op.
		var got, want bool
		if invoked {
			seq := tm2.InvokeSeq(ctx)
			if res, ok := tm2.CommittedResult(ctx, seq); ok {
				got = res == 1
			} else {
				// Not committed: re-run under the same sequence.
				if kinds[idx] == 0 {
					got = l2.Insert(ctx, seq, keys[idx])
				} else {
					got = l2.Delete(ctx, seq, keys[idx])
				}
			}
		} else {
			seq := tm2.Invoke(ctx)
			if kinds[idx] == 0 {
				got = l2.Insert(ctx, seq, keys[idx])
			} else {
				got = l2.Delete(ctx, seq, keys[idx])
			}
		}
		if kinds[idx] == 0 {
			want = !model[keys[idx]]
			model[keys[idx]] = true
		} else {
			want = model[keys[idx]]
			delete(model, keys[idx])
		}
		if got != want {
			t.Fatalf("crashAt=%d recovered op %d: got %v want %v", crashAt, idx, got, want)
		}
		// Finish the script and compare final contents.
		for i := idx + 1; i < len(keys); i++ {
			seq := tm2.Invoke(ctx)
			var got, want bool
			if kinds[i] == 0 {
				got = l2.Insert(ctx, seq, keys[i])
				want = !model[keys[i]]
				model[keys[i]] = true
			} else {
				got = l2.Delete(ctx, seq, keys[i])
				want = model[keys[i]]
				delete(model, keys[i])
			}
			if got != want {
				t.Fatalf("crashAt=%d post-recovery op %d: got %v want %v", crashAt, i, got, want)
			}
		}
		final := l2.Keys(ctx)
		if len(final) != len(model) {
			t.Fatalf("crashAt=%d: final %v vs model %v", crashAt, final, model)
		}
		for _, k := range final {
			if !model[k] {
				t.Fatalf("crashAt=%d: ghost key %d", crashAt, k)
			}
		}
	}
}

func TestAttachEmptySlot(t *testing.T) {
	pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 12, MaxThreads: 2})
	if _, err := AttachTM(pool, 3); err == nil {
		t.Fatal("AttachTM on empty slot succeeded")
	}
}
