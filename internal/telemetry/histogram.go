package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Op identifies one operation class of the benchmark harness for latency
// histogramming.
type Op int

// The operation classes.
const (
	// OpFind is a read-only lookup (contains / read).
	OpFind Op = iota
	// OpInsert is an insert / increment-style update.
	OpInsert
	// OpDelete is a delete-style update.
	OpDelete
	numOps
)

// String names the operation class for snapshots.
func (o Op) String() string {
	switch o {
	case OpFind:
		return "find"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Latency buckets use a log2-with-linear-sub-bucket layout (the
// HdrHistogram shape): each power-of-two octave of nanosecond values is
// split into histSubBuckets equal-width sub-buckets, bounding the relative
// quantization error by 1/histSubBuckets (6.25%) at every magnitude. The
// previous single-bucket-per-octave layout could not separate any two
// latencies within a factor of two of each other, which at realistic
// operation latencies collapsed p99 and p99.9 into the same bucket — a
// psync stall had to *double* an operation's latency before the tail
// quantiles could register it at all.
const (
	histSubBits    = 4
	histSubBuckets = 1 << histSubBits
)

// histBuckets is the number of buckets: values below histSubBuckets get an
// exact bucket each, and every 64-bit value with bit-length m > histSubBits
// lands in one of the histSubBuckets sub-buckets of octave m.
const histBuckets = (64 - histSubBits + 1) * histSubBuckets

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(u uint64) int {
	if u < histSubBuckets {
		return int(u)
	}
	m := bits.Len64(u) - 1
	return ((m - histSubBits + 1) << histSubBits) |
		int((u>>uint(m-histSubBits))&(histSubBuckets-1))
}

// bucketBounds returns the inclusive value range of bucket b.
func bucketBounds(b int) (lo, hi uint64) {
	if b < histSubBuckets {
		return uint64(b), uint64(b)
	}
	e := b >> histSubBits // octave index, >= 1
	sub := uint64(b & (histSubBuckets - 1))
	m := uint(e + histSubBits - 1) // bit length - 1 of the octave's values
	width := uint64(1) << (m - histSubBits)
	lo = 1<<m | sub*width
	return lo, lo + width - 1
}

// histShard is one thread's share of one operation class's latency
// histogram. All fields are atomics so a Snapshot taken mid-run reads a
// consistent-enough merge without stopping recorders; the owning thread is
// the only writer, so the adds never contend.
type histShard struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sumNs  atomic.Uint64
}

// record adds one duration (in nanoseconds; negatives clamp to 0).
func (h *histShard) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(uint64(ns))].Add(1)
	h.count.Add(1)
	h.sumNs.Add(uint64(ns))
}

// HistogramSnapshot is the merged latency histogram of one operation class
// across all recording threads.
type HistogramSnapshot struct {
	// Op is the operation class name: "find", "insert" or "delete".
	Op string `json:"op"`
	// Count is the number of recorded operations.
	Count uint64 `json:"count"`
	// TotalNs is the summed latency of all recorded operations.
	TotalNs uint64 `json:"total_ns"`
	// MeanNs is TotalNs / Count.
	MeanNs float64 `json:"mean_ns"`
	// P50Ns, P90Ns, P99Ns and P99_9Ns are quantile estimates: the rank
	// ceil(q·Count) sample's bucket, linearly interpolated within the
	// bucket, so the estimate is off by at most one sub-bucket width
	// (1/histSubBuckets relative, 6.25%).
	P50Ns uint64 `json:"p50_ns"`
	// P90Ns is the 90th-percentile estimate; see P50Ns for resolution.
	P90Ns uint64 `json:"p90_ns"`
	// P99Ns is the 99th-percentile estimate; see P50Ns for resolution.
	P99Ns uint64 `json:"p99_ns"`
	// P99_9Ns is the 99.9th-percentile estimate; see P50Ns for resolution.
	P99_9Ns uint64 `json:"p99_9_ns"`
	// Buckets lists the non-empty latency buckets in ascending order.
	Buckets []HistBucket `json:"buckets"`
}

// HistBucket is one non-empty latency bucket.
type HistBucket struct {
	// MinNs is the inclusive lower bound of the bucket.
	MinNs uint64 `json:"min_ns"`
	// MaxNs is the inclusive upper bound of the bucket.
	MaxNs uint64 `json:"max_ns"`
	// Count is the number of operations that fell in the bucket.
	Count uint64 `json:"count"`
}

// histQuantile estimates the q-quantile of a bucketed distribution: the
// value of the rank-ceil(q·total) sample in ascending order. The rank
// comparison is cum+count >= rank (not >), so a quantile landing exactly on
// a bucket's cumulative boundary resolves to the bucket that actually
// contains the rank-th sample — the previous pick (first bucket with
// cum > floor(q·total)) stepped past it to the next non-empty bucket, which
// at p99 of a round sample count reported the maximum instead of the 99th
// percentile. Within the bucket the estimate interpolates linearly by the
// rank's position among the bucket's samples, landing on MaxNs when the
// rank is the bucket's last sample (so estimates never exceed the bucket).
func histQuantile(buckets []HistBucket, total uint64, q float64) uint64 {
	if total == 0 || len(buckets) == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for _, bk := range buckets {
		if cum+bk.Count >= rank {
			pos := rank - cum // 1-based position within the bucket
			span := bk.MaxNs - bk.MinNs + 1
			est := uint64(float64(span) * float64(pos) / float64(bk.Count))
			if est < 1 {
				est = 1
			}
			if est > span {
				est = span
			}
			return bk.MinNs + est - 1
		}
		cum += bk.Count
	}
	return buckets[len(buckets)-1].MaxNs
}

// histFromCounts assembles a snapshot from a merged bucket-count array.
// Count is derived from the bucket sum, so the exported histogram is
// internally consistent even when the caller's separately accumulated
// count/sum words lag racing in-flight records.
func histFromCounts(op string, merged *[histBuckets]uint64, totalNs uint64) HistogramSnapshot {
	out := HistogramSnapshot{Op: op, TotalNs: totalNs}
	var total uint64
	for b, c := range merged {
		if c > 0 {
			lo, hi := bucketBounds(b)
			out.Buckets = append(out.Buckets, HistBucket{MinNs: lo, MaxNs: hi, Count: c})
			total += c
		}
	}
	out.Count = total
	if total == 0 {
		out.TotalNs = 0
		return out
	}
	out.MeanNs = float64(out.TotalNs) / float64(out.Count)
	out.P50Ns = histQuantile(out.Buckets, total, 0.50)
	out.P90Ns = histQuantile(out.Buckets, total, 0.90)
	out.P99Ns = histQuantile(out.Buckets, total, 0.99)
	out.P99_9Ns = histQuantile(out.Buckets, total, 0.999)
	return out
}

// mergeHistograms folds per-thread shards of one operation class into a
// snapshot. Counts and sums are read with atomic loads; a concurrent record
// may land in the count but not yet the sum (or vice versa), which skews
// MeanNs by at most one in-flight operation.
func mergeHistograms(op Op, shards []*histShard) HistogramSnapshot {
	var merged [histBuckets]uint64
	var totalNs uint64
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		for b := range merged {
			merged[b] += sh.counts[b].Load()
		}
		totalNs += sh.sumNs.Load()
	}
	return histFromCounts(op.String(), &merged, totalNs)
}
