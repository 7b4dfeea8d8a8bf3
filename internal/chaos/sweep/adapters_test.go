package sweep

import (
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/pmem"
)

// runAdapterChaos runs one registered structure under the randomized crash
// harness and audits the result with its own Validate oracle.
func runAdapterChaos(t *testing.T, name string, seed int64, threads, ops, crashes int) {
	t.Helper()
	a, err := AdapterByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if threads < a.MinThreads {
		threads = a.MinThreads
	}
	pool := pmem.New(pmem.Config{Mode: pmem.ModeStrict, CapacityWords: 1 << 21, MaxThreads: threads + 2})
	a.Setup(pool, threads+2)
	res, err := chaos.Run(chaos.Config{
		Pool:                       pool,
		Threads:                    threads,
		OpsPerThread:               ops,
		GenOp:                      a.GenOp,
		Reattach:                   a.Reattach,
		Seed:                       seed,
		MaxCrashes:                 crashes,
		MeanAccessesBetweenCrashes: 500,
		CommitProb:                 0.5,
		EvictProb:                  0.1,
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if err := a.Validate(pool, res); err != nil {
		t.Fatalf("%s seed %d: %v (after %d crashes)", name, seed, err, res.Crashes)
	}
}

func TestAdapterRegistry(t *testing.T) {
	want := []string{"capsules", "capsules-opt", "kvstore", "rbst", "rexchanger", "rhash", "rlist", "rmm", "rqueue", "rstack"}
	got := AdapterNames()
	if len(got) != len(want) {
		t.Fatalf("AdapterNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AdapterNames() = %v, want %v", got, want)
		}
	}
	if _, err := AdapterByName("no-such"); err == nil {
		t.Fatal("unknown structure accepted")
	}
	// Every registered structure is swept: no structure list means all.
	var cfg Config
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cfg.Structures, want) {
		t.Fatalf("default sweep covers %v, want every adapter %v", cfg.Structures, want)
	}
}

func TestAdapterChaosAllStructures(t *testing.T) {
	for _, name := range AdapterNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runAdapterChaos(t, name, 11, 3, 30, 4)
			runAdapterChaos(t, name, 12, 1, 40, 6)
		})
	}
}

func TestAdapterChaosManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos sweep")
	}
	for _, name := range []string{"rbst", "rhash", "rqueue", "rstack", "rexchanger"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(20); seed < 30; seed++ {
				runAdapterChaos(t, name, seed, 3, 25, 4)
			}
		})
	}
}
