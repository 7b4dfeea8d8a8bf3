package pmem

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestForeignFlushPersistsWhatItRead: a thread that reads another
// thread's freshly written value, writes its line back and syncs has made
// that value (or a newer one) durable — the flush-before-use rule recovery
// arguments rely on. A concurrent writer bumps a counter word with CAS
// while a reader flushes what it saw; the durable copy must never lag the
// value the reader flushed.
func TestForeignFlushPersistsWhatItRead(t *testing.T) {
	p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 4})
	w, r := p.NewThread(1), p.NewThread(2)
	a := w.AllocLines(1)
	const rounds = 20000
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(0); !stop.Load(); v++ {
			w.CAS(a, v, v+1)
		}
	}()
	for i := 0; i < rounds; i++ {
		v := r.Load(a)
		r.PWB(NoSite, a)
		r.PSync()
		if d := p.DurableLoad(a); d < v {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("round %d: flushed and synced %d, durable copy %d", i, v, d)
		}
	}
	stop.Store(true)
	wg.Wait()
}
