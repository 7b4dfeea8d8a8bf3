package pmem

// spinSink defeats dead-code elimination of the spin loop. It is written
// racily on purpose; the value is never read for program logic.
var spinSink uint64

// spin burns roughly n abstract cost units of CPU. One unit is one
// iteration of a cheap integer recurrence, on the order of a nanosecond on
// contemporary hardware. The absolute scale is irrelevant to the
// experiments, which compare configurations under the same scale;
// BenchmarkSpin reports one unit's wall-clock cost on the host (ns/unit).
func spin(n int) {
	if n <= 0 {
		return
	}
	x := uint64(n) + 0x9e3779b97f4a7c15
	for i := 0; i < n; i++ {
		x = x*2862933555777941757 + 3037000493
	}
	// The recurrence never yields 1 in practice; the branch exists only so
	// the compiler cannot eliminate the loop, without introducing a data
	// race on the common path.
	if x == 1 {
		spinSink = x
	}
}
