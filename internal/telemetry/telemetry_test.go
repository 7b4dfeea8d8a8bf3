package telemetry

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/pmem"
)

// TestHistogramMergeConcurrent hammers RecordOp from many goroutines (one
// per simulated thread id, as the bench harness does) while snapshots are
// taken, then checks the final merge is exact: every recorded operation in
// exactly one bucket, sums matching. Run under -race this also proves the
// shard paths are data-race free.
func TestHistogramMergeConcurrent(t *testing.T) {
	reg := NewRegistry(Config{})
	const (
		threads = 8
		perOp   = 5000
	)
	var recorders, snapshotter sync.WaitGroup
	stop := make(chan struct{})
	// A concurrent snapshotter exercises merge-while-recording.
	snapshotter.Add(1)
	go func() {
		defer snapshotter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := reg.Snapshot()
				for _, h := range snap.Ops {
					var sum uint64
					for _, b := range h.Buckets {
						sum += b.Count
					}
					if sum != h.Count {
						t.Errorf("mid-run histogram inconsistent: sum %d != count %d", sum, h.Count)
						return
					}
				}
			}
		}
	}()
	for tid := 0; tid < threads; tid++ {
		recorders.Add(1)
		go func(tid int) {
			defer recorders.Done()
			for i := 0; i < perOp; i++ {
				// Latencies spanning many log2 buckets, plus the
				// degenerate 0 and negative cases.
				reg.RecordOp(tid, OpFind, int64(i%4096))
				reg.RecordOp(tid, OpInsert, int64(i)<<(uint(i)%20))
				reg.RecordOp(tid, OpDelete, -1)
			}
		}(tid)
	}
	recorders.Wait()
	close(stop)
	snapshotter.Wait()

	snap := reg.Snapshot()
	want := uint64(threads * perOp)
	if len(snap.Ops) != 3 {
		t.Fatalf("expected 3 op histograms, got %d", len(snap.Ops))
	}
	for _, h := range snap.Ops {
		if h.Count != want {
			t.Errorf("op %q count = %d, want %d", h.Op, h.Count, want)
		}
		var sum uint64
		for _, b := range h.Buckets {
			sum += b.Count
		}
		if sum != h.Count {
			t.Errorf("op %q bucket sum %d != count %d", h.Op, sum, h.Count)
		}
		if h.P50Ns > h.P90Ns || h.P90Ns > h.P99Ns {
			t.Errorf("op %q quantiles unordered: %d %d %d", h.Op, h.P50Ns, h.P90Ns, h.P99Ns)
		}
	}
	// The delete histogram recorded only clamped negatives: one 0-ns bucket.
	for _, h := range snap.Ops {
		if h.Op == "delete" {
			if len(h.Buckets) != 1 || h.Buckets[0].MaxNs != 0 {
				t.Errorf("clamped negatives should land in the 0-ns bucket, got %+v", h.Buckets)
			}
		}
	}
}

// TestRingWraparound overfills a small ring and checks that exactly the
// newest capacity-many events survive, in sequence order, with the
// overwritten remainder accounted as seen.
func TestRingWraparound(t *testing.T) {
	const capacity = 64 // already a power of two
	reg := NewRegistry(Config{RingSize: capacity})
	const total = 1000
	for i := 0; i < total; i++ {
		reg.TelemetryEvent(pmem.EventCrashTriggered, -1, pmem.NoSite, uint64(i))
	}
	snap := reg.Snapshot()
	if snap.EventsSeen != total {
		t.Fatalf("EventsSeen = %d, want %d", snap.EventsSeen, total)
	}
	if len(snap.Events) != capacity {
		t.Fatalf("kept %d events, want the last %d", len(snap.Events), capacity)
	}
	for i, e := range snap.Events {
		wantSeq := uint64(total - capacity + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Arg != wantSeq {
			t.Fatalf("event %d payload %d, want %d", i, e.Arg, wantSeq)
		}
	}
	if got := snap.FormatTrace(3); len(got) != 3 {
		t.Fatalf("FormatTrace(3) returned %d lines", len(got))
	}
}

// TestPauseHintsAreNotEvents pins that a thread's spin-wait hints reach
// the attached sink but leave the registry's event count and trace alone:
// how often a waiter polls depends on scheduling, and the per-task event
// counts in crash_coverage.json must not.
func TestPauseHintsAreNotEvents(t *testing.T) {
	pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 10, MaxThreads: 2})
	reg := NewRegistry(Config{RingSize: 64, TracePersist: true})
	reg.AttachPool(pool)
	ctx := pool.NewThread(1)
	for i := 0; i < 10; i++ {
		ctx.Pause()
	}
	if snap := reg.Snapshot(); snap.EventsSeen != 0 || len(snap.Events) != 0 {
		t.Fatalf("pause hints recorded as events: seen %d, kept %d", snap.EventsSeen, len(snap.Events))
	}
	if got := reg.Totals().Events; got != 0 {
		t.Fatalf("Totals().Events = %d after pause hints only, want 0", got)
	}
}

// TestRingConcurrentAppend drives the ring from several goroutines under
// -race: every collected event must be intact (kind matches what writers
// produce) and sequence-sorted.
func TestRingConcurrentAppend(t *testing.T) {
	reg := NewRegistry(Config{RingSize: 128})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				reg.TelemetryEvent(pmem.EventRecovered, g, pmem.NoSite, uint64(i))
			}
		}(g)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if snap.EventsSeen != 12000 {
		t.Fatalf("EventsSeen = %d, want 12000", snap.EventsSeen)
	}
	for i, e := range snap.Events {
		if e.Kind != "recovered" {
			t.Fatalf("torn event at %d: %+v", i, e)
		}
		if i > 0 && e.Seq <= snap.Events[i-1].Seq {
			t.Fatalf("events not sequence-sorted at %d", i)
		}
	}
}

// TestRegistryWithPool runs real persistence traffic through an attached
// registry (fast mode for charged stalls) and checks the per-site pwb
// counts match the pool's own accounting, psync stall is fully attributed,
// and the snapshot JSON round-trips through the validator.
func TestRegistryWithPool(t *testing.T) {
	pool := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 16, MaxThreads: 4})
	sa := pool.RegisterSite("test/site-a")
	sb := pool.RegisterSite("test/site-b")
	reg := NewRegistry(Config{RingSize: 256, TracePersist: true})
	reg.AttachPool(pool)

	var wg sync.WaitGroup
	for tid := 0; tid < 3; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ctx := pool.NewThread(tid)
			a := ctx.AllocWords(8)
			for i := 0; i < 200; i++ {
				ctx.StoreDurable(sa, a, uint64(i))
				ctx.StoreDurable(sb, a+pmem.WordSize, uint64(i))
				ctx.StoreDurable(sb, a+2*pmem.WordSize, uint64(i))
				ctx.PSync()
			}
		}(tid)
	}
	wg.Wait()

	snap := reg.Snapshot()
	st := pool.Snapshot()
	bySite := map[string]SiteSnapshot{}
	for _, s := range snap.Sites {
		bySite[s.Site] = s
	}
	for label, want := range st.PWBsBySite {
		if got := bySite[label].PWBs; got != want {
			t.Errorf("site %s: telemetry counted %d pwbs, pool counted %d", label, got, want)
		}
	}
	if snap.PSyncs != st.PSyncs {
		t.Errorf("telemetry psyncs %d != pool %d", snap.PSyncs, st.PSyncs)
	}
	// Fast-mode psync stall must be exactly attributed: the per-site
	// shares sum back to the total (integer remainders included).
	var attributed uint64
	for _, s := range snap.Sites {
		attributed += s.PSyncStallUnits
	}
	if attributed != snap.PSyncStallUnits {
		t.Errorf("attributed psync stall %d != total %d", attributed, snap.PSyncStallUnits)
	}
	if snap.PSyncStallUnits == 0 {
		t.Error("fast-mode psyncs charged no stall")
	}
	// site-b pends twice the write-backs of site-a, so its attributed
	// share must dominate.
	if bySite["test/site-b"].PSyncStallUnits <= bySite["test/site-a"].PSyncStallUnits {
		t.Errorf("stall attribution ignores pending counts: a=%d b=%d",
			bySite["test/site-a"].PSyncStallUnits, bySite["test/site-b"].PSyncStallUnits)
	}

	data, err := snap.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSnapshotJSON(data); err != nil {
		t.Fatalf("snapshot fails own validator: %v\n%s", err, data)
	}
}

// TestAttachRetiresAcrossPools attaches the same registry to two pools
// with conflicting site tables (same indices, different labels) and checks
// both pools' counts survive under their own labels.
func TestAttachRetiresAcrossPools(t *testing.T) {
	reg := NewRegistry(Config{})
	counts := map[string]uint64{}
	for _, name := range []string{"pool-one/site", "pool-two/site"} {
		pool := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 12, MaxThreads: 2})
		s := pool.RegisterSite(name)
		reg.AttachPool(pool)
		ctx := pool.NewThread(0)
		a := ctx.AllocWords(1)
		n := uint64(10)
		if name == "pool-two/site" {
			n = 25
		}
		for i := uint64(0); i < n; i++ {
			ctx.StoreDurable(s, a, i)
		}
		ctx.PSync()
		counts[name] = n
	}
	snap := reg.Snapshot()
	got := map[string]uint64{}
	for _, s := range snap.Sites {
		got[s.Site] = s.PWBs
	}
	for name, want := range counts {
		if got[name] != want {
			t.Errorf("site %s: %d pwbs after re-attach, want %d (snapshot %+v)", name, got[name], want, snap.Sites)
		}
	}
	if snap.PWBs != 35 {
		t.Errorf("total pwbs %d, want 35", snap.PWBs)
	}
}

// TestValidateSnapshotJSONRejects spot-checks the validator's teeth.
func TestValidateSnapshotJSONRejects(t *testing.T) {
	good := NewRegistry(Config{}).Snapshot()
	ok, _ := json.Marshal(good)
	if err := ValidateSnapshotJSON(ok); err != nil {
		t.Fatalf("empty snapshot should validate: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"schema", func(s *Snapshot) { s.Schema = "bogus/9" }},
		{"pwb-sum", func(s *Snapshot) { s.PWBs = 7 }},
		{"empty-label", func(s *Snapshot) {
			s.Sites = append(s.Sites, SiteSnapshot{PWBs: 0})
		}},
		{"bucket-sum", func(s *Snapshot) {
			s.Ops = append(s.Ops, HistogramSnapshot{Op: "find", Count: 2,
				Buckets: []HistBucket{{MaxNs: 1, Count: 1}}})
		}},
		{"quantile-order", func(s *Snapshot) {
			s.Ops = append(s.Ops, HistogramSnapshot{Op: "find", Count: 1, P50Ns: 9, P90Ns: 3, P99Ns: 10,
				Buckets: []HistBucket{{MaxNs: 1, Count: 1}}})
		}},
		{"tail-quantile-order", func(s *Snapshot) {
			s.Ops = append(s.Ops, HistogramSnapshot{Op: "find", Count: 1,
				P50Ns: 1, P90Ns: 1, P99Ns: 10, P99_9Ns: 5,
				Buckets: []HistBucket{{MinNs: 1, MaxNs: 1, Count: 1}}})
		}},
		{"bucket-bounds-inverted", func(s *Snapshot) {
			s.Ops = append(s.Ops, HistogramSnapshot{Op: "find", Count: 1,
				Buckets: []HistBucket{{MinNs: 5, MaxNs: 3, Count: 1}}})
		}},
		{"buckets-overlap", func(s *Snapshot) {
			s.Ops = append(s.Ops, HistogramSnapshot{Op: "find", Count: 2,
				Buckets: []HistBucket{
					{MinNs: 1, MaxNs: 4, Count: 1},
					{MinNs: 4, MaxNs: 8, Count: 1},
				}})
		}},
		{"trace-order", func(s *Snapshot) {
			s.EventsSeen = 2
			s.Events = []EventSnapshot{{Seq: 5, Kind: "pwb"}, {Seq: 4, Kind: "pwb"}}
		}},
	}
	for _, tc := range bad {
		s := good
		s.Sites = append([]SiteSnapshot(nil), good.Sites...)
		s.Ops = append([]HistogramSnapshot(nil), good.Ops...)
		tc.mut(&s)
		data, _ := json.Marshal(s)
		if err := ValidateSnapshotJSON(data); err == nil {
			t.Errorf("%s: validator accepted a corrupted snapshot", tc.name)
		}
	}
	if err := ValidateSnapshotJSON([]byte(`{"schema":"repro-telemetry/1","unknown":1}`)); err == nil {
		t.Error("unknown fields accepted")
	}
}
