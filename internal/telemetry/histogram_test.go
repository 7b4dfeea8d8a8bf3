package telemetry

import "testing"

// TestBucketLayout checks the log2-with-sub-buckets geometry: buckets tile
// the 64-bit value space contiguously and index/bounds round-trip.
func TestBucketLayout(t *testing.T) {
	if got := bucketIndex(0); got != 0 {
		t.Fatalf("bucketIndex(0) = %d", got)
	}
	if got := bucketIndex(^uint64(0)); got != histBuckets-1 {
		t.Fatalf("bucketIndex(max) = %d, want %d", got, histBuckets-1)
	}
	prevHi := uint64(0)
	for b := 0; b < histBuckets; b++ {
		lo, hi := bucketBounds(b)
		if lo > hi {
			t.Fatalf("bucket %d bounds inverted: [%d,%d]", b, lo, hi)
		}
		if b > 0 && lo != prevHi+1 {
			t.Fatalf("bucket %d not contiguous: lo=%d, previous hi=%d", b, lo, prevHi)
		}
		if bucketIndex(lo) != b || bucketIndex(hi) != b {
			t.Fatalf("bucket %d [%d,%d] does not round-trip (lo->%d, hi->%d)",
				b, lo, hi, bucketIndex(lo), bucketIndex(hi))
		}
		prevHi = hi
	}
	if prevHi != ^uint64(0) {
		t.Fatalf("top bucket ends at %d, want 2^64-1", prevHi)
	}
	// Sub-bucket resolution: values in the same power-of-two octave but
	// more than one sub-bucket width apart must separate. The old
	// one-bucket-per-octave layout put 1500 and 1900 in the same bucket.
	if bucketIndex(1500) == bucketIndex(1900) {
		t.Error("1500ns and 1900ns collapse into one bucket")
	}
	lo, hi := bucketBounds(bucketIndex(1500))
	if rel := float64(hi-lo+1) / 1500; rel > 0.0626 {
		t.Errorf("bucket width at 1500ns is %.1f%% relative, want <= 6.25%%", rel*100)
	}
}

// TestQuantileBoundaryPick pins the exact-boundary fix: when the rank lands
// on a bucket's last sample, the estimate comes from that bucket, not the
// next non-empty one.
func TestQuantileBoundaryPick(t *testing.T) {
	buckets := []HistBucket{
		{MinNs: 10, MaxNs: 10, Count: 50},
		{MinNs: 20, MaxNs: 20, Count: 50},
	}
	if got := histQuantile(buckets, 100, 0.50); got != 10 {
		t.Errorf("p50 of a 50/50 split = %d, want 10 (rank 50 is the first bucket's last sample)", got)
	}
	if got := histQuantile(buckets, 100, 0.51); got != 20 {
		t.Errorf("p51 = %d, want 20", got)
	}
	if got := histQuantile(buckets, 100, 1.0); got != 20 {
		t.Errorf("p100 = %d, want 20", got)
	}
	if got := histQuantile([]HistBucket{{MinNs: 0, MaxNs: 0, Count: 3}}, 3, 0.5); got != 0 {
		t.Errorf("p50 of all-zero latencies = %d, want 0", got)
	}
}

// TestTailQuantilesSeparate pins the satellite fix end to end: with 1% of
// operations slow, p99 must stay at the fast level while p99.9 reports the
// slow level — the old octave-wide buckets plus past-the-boundary rank pick
// collapsed both into the slow bucket.
func TestTailQuantilesSeparate(t *testing.T) {
	var sh histShard
	for i := 0; i < 990; i++ {
		sh.record(1500)
	}
	for i := 0; i < 10; i++ {
		sh.record(100_000)
	}
	h := mergeHistograms(OpFind, []*histShard{&sh})
	if h.Count != 1000 {
		t.Fatalf("count %d", h.Count)
	}
	if h.P99Ns > 2000 {
		t.Errorf("p99 = %dns, want the fast level (~1500ns)", h.P99Ns)
	}
	if h.P99_9Ns < 90_000 {
		t.Errorf("p99.9 = %dns, want the slow level (~100000ns)", h.P99_9Ns)
	}
	if h.P50Ns < 1472 || h.P50Ns > 1535 {
		t.Errorf("p50 = %dns, want within 1500's sub-bucket [1472,1535]", h.P50Ns)
	}
}
