package bench

import (
	"math/rand"
	"testing"

	"repro/internal/pmem"
	"repro/internal/telemetry"
)

// TestRunOpsExecutesExactly pins the batching fix: workers trim the final
// claim instead of running a full batch for any positive countdown, so the
// executed count equals n for counts that are not multiples of the batch
// size or the thread count. The seed's loop overshot by up to
// opBatch*Threads-1 operations while callers divided metrics by n.
func TestRunOpsExecutesExactly(t *testing.T) {
	for _, n := range []int{1, 7, opBatch, opBatch + 1, 100, 1001} {
		reg := telemetry.NewRegistry(telemetry.Config{})
		r, err := Prepare(Config{
			Algo:      AlgoTracking,
			Threads:   4,
			Seed:      7,
			PoolWords: 1 << 20,
			Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.RunOps(n); got != n {
			t.Errorf("RunOps(%d) executed %d operations", n, got)
		}
		// The telemetry op histograms see every operation exactly once, so
		// they independently witness the executed count.
		if tot := reg.Totals(); tot.Ops != uint64(n) {
			t.Errorf("RunOps(%d): telemetry recorded %d operations", n, tot.Ops)
		}
	}
}

// TestRunnerStatsDelta pins the Stats delta semantics: only sites with
// measured-phase activity appear (the preload-only baseline must not leave
// stale zero entries), and nothing underflows.
func TestRunnerStatsDelta(t *testing.T) {
	r, err := Prepare(Config{Algo: AlgoTracking, Threads: 2, Seed: 3, PoolWords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); len(st.PWBsBySite) != 0 || st.PWBs != 0 {
		t.Fatalf("Stats before RunOps not empty: %+v", st)
	}
	executed := r.RunOps(200)
	st := r.Stats()
	if st.PWBs == 0 || st.PSyncs == 0 {
		t.Fatalf("no persistence activity recorded for %d update-capable ops: %+v", executed, st)
	}
	var sum uint64
	for l, c := range st.PWBsBySite {
		if c == 0 {
			t.Errorf("stale zero entry for site %q", l)
		}
		sum += c
	}
	if sum != st.PWBs {
		t.Errorf("per-site sum %d != total %d", sum, st.PWBs)
	}
}

// TestStatsSub pins pmem.Stats.Sub directly: clamped differences, no
// stale or foreign keys in the delta map.
func TestStatsSub(t *testing.T) {
	cur := pmem.Stats{
		PWBsBySite: map[string]uint64{"a": 10, "b": 5, "c": 5},
		PWBs:       20, PSyncs: 4, PFences: 2, SpinUnits: 100,
	}
	base := pmem.Stats{
		// "b" exceeds the snapshot (a reset pool), "c" is unchanged, and
		// "d" exists only in the base (a site the snapshot never saw).
		PWBsBySite: map[string]uint64{"a": 3, "b": 8, "c": 5, "d": 1},
		PWBs:       25, PSyncs: 1, PFences: 0, SpinUnits: 40,
	}
	d := cur.Sub(base)
	if d.PWBs != 0 {
		t.Errorf("PWBs delta = %d, want clamped 0", d.PWBs)
	}
	if d.PSyncs != 3 || d.PFences != 2 || d.SpinUnits != 60 {
		t.Errorf("scalar deltas wrong: %+v", d)
	}
	if want := map[string]uint64{"a": 7}; len(d.PWBsBySite) != 1 || d.PWBsBySite["a"] != want["a"] {
		t.Errorf("PWBsBySite delta = %v, want %v", d.PWBsBySite, want)
	}
}

// TestRunOneUpdateSplit pins the independent insert/delete draw: with an
// odd FindPct the old parity-of-pct scheme put 15 even values against 14
// odd ones in [29,100) — a structural 5%-relative skew — while an
// independent coin keeps the split within sampling noise.
func TestRunOneUpdateSplit(t *testing.T) {
	reg := telemetry.NewRegistry(telemetry.Config{})
	r, err := Prepare(Config{
		Algo:     AlgoTracking,
		Threads:  1,
		Seed:     11,
		Workload: Workload{KeyRange: 500, Preload: 50, FindPct: 29},
		// Odd FindPct: parity-correlated direction would skew the split.
		PoolWords: 1 << 21,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	r.RunOps(n)
	snap := reg.Snapshot()
	var ins, del float64
	for _, h := range snap.Ops {
		switch h.Op {
		case "insert":
			ins = float64(h.Count)
		case "delete":
			del = float64(h.Count)
		}
	}
	if ins == 0 || del == 0 {
		t.Fatalf("no updates recorded: %+v", snap.Ops)
	}
	// ~7100 draws per side; 3 sigma of the 50/50 split is ~1.2%.
	if ratio := ins / (ins + del); ratio < 0.47 || ratio > 0.53 {
		t.Errorf("insert share %.4f outside [0.47, 0.53] (insert=%v delete=%v)", ratio, ins, del)
	}
}

// TestPreloadKeysDistinct pins the preload fix: exactly Preload distinct
// in-range keys, clamped at KeyRange.
func TestPreloadKeysDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := preloadKeys(Workload{KeyRange: 100, Preload: 50}, rng)
	if len(keys) != 50 {
		t.Fatalf("got %d keys, want 50", len(keys))
	}
	seen := map[int64]bool{}
	for _, k := range keys {
		if k < 1 || k > 100 {
			t.Fatalf("key %d out of range [1,100]", k)
		}
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
	if got := preloadKeys(Workload{KeyRange: 10, Preload: 25}, rng); len(got) != 10 {
		t.Fatalf("overfull preload: got %d keys, want clamp to 10", len(got))
	}
	if got := preloadKeys(Workload{KeyRange: 10, Preload: 0}, rng); len(got) != 0 {
		t.Fatalf("zero preload: got %d keys", len(got))
	}
}

// TestPreparePreloadOccupancy is the regression test for the
// draw-with-replacement preload bug: after Prepare, the structure holds
// exactly Workload.Preload keys. (At KeyRange 100 / Preload 50 the old
// preload landed near 39 in expectation and only ever reached 50 by luck.)
func TestPreparePreloadOccupancy(t *testing.T) {
	for _, algo := range []Algo{AlgoTracking, AlgoTrackingMap} {
		r, err := Prepare(Config{
			Algo: algo, Threads: 1, Seed: 3,
			Workload:  Workload{KeyRange: 100, Preload: 50, FindPct: 100},
			PoolWords: 1 << 16,
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		probe := r.inst.runner(1)
		occupancy := 0
		for k := int64(1); k <= 100; k++ {
			if probe.Find(k) {
				occupancy++
			}
		}
		if occupancy != 50 {
			t.Errorf("%s: post-preload occupancy %d, want exactly 50", algo, occupancy)
		}
	}
}

// TestThreadSeedDecorrelated pins the splitmix derivation: distinct,
// non-linear seeds, and key streams that do not collide between adjacent
// threads the way the old seed+tid·7919 scheme's did.
func TestThreadSeedDecorrelated(t *testing.T) {
	seen := map[int64]bool{}
	for idx := 0; idx < 1000; idx++ {
		s := threadSeed(42, idx)
		if seen[s] {
			t.Fatalf("seed collision at idx %d", idx)
		}
		seen[s] = true
	}
	// Adjacent-thread streams must diverge immediately: with 64-key draws
	// two independent streams agree per position with p=1/64, so 100
	// positions agreeing more than ~20 times means correlation.
	a := rand.New(rand.NewSource(threadSeed(42, 1)))
	b := rand.New(rand.NewSource(threadSeed(42, 2)))
	agree := 0
	for i := 0; i < 100; i++ {
		if a.Int63n(64) == b.Int63n(64) {
			agree++
		}
	}
	if agree > 20 {
		t.Fatalf("adjacent thread streams agree on %d/100 draws", agree)
	}
}
