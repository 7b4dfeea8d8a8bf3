package rstack

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/pmem"
)

// TestStaleTopNeverTakesEffect: a Push or Pop that read the top pointer,
// then lost the race to a Push that covered that node, must not tag the
// covered node and take effect without moving the top. Three goroutines
// alternate pushes and pops on a shallow stack; every pushed value must end
// up popped exactly once or still stacked. (The race window is two loads
// wide, so this is a stress test: it caught the bug in most runs.)
func TestStaleTopNeverTakesEffect(t *testing.T) {
	for round := 0; round < 8; round++ {
		staleTopRound(t)
	}
}

func staleTopRound(t *testing.T) {
	pool := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 24, MaxThreads: 8})
	s := New(pool, 8, 0)
	const threads, opsPer = 3, 30000
	pushed := make([][]uint64, threads)
	popped := make([][]uint64, threads)
	var wg sync.WaitGroup
	for tid := 1; tid <= threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			h := s.Handle(pool.NewThread(tid))
			for i := 0; i < opsPer; i++ {
				if i%2 == 0 {
					v := uint64(tid)<<32 | uint64(i)
					h.Push(v)
					pushed[tid-1] = append(pushed[tid-1], v)
				} else if v, ok := h.Pop(); ok {
					popped[tid-1] = append(popped[tid-1], v)
				}
				if i%64 == 0 {
					runtime.Gosched()
				}
			}
		}(tid)
	}
	wg.Wait()
	seen := map[uint64]int{}
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range s.Snapshot(pool.NewThread(0)) {
		seen[v]++
	}
	for _, vs := range pushed {
		for _, v := range vs {
			if seen[v] != 1 {
				t.Fatalf("pushed value %#x observed %d times (popped or stacked)", v, seen[v])
			}
		}
	}
}
