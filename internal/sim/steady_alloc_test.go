package sim_test

import (
	"runtime"
	"testing"

	"vtmig/internal/scenario"
	"vtmig/internal/sim"
)

// TestFleetSteadyStateAllocsFlat is the allocation regression gate behind
// BenchmarkSimFleet: once the metro workload reaches steady state
// (history buffers compacted, scratch grown, attach storm over), the
// per-tick allocation count must be small and essentially independent of
// the fleet size — a 10x larger fleet may not cost 10x the allocations.
// The guarded paths are the streaming report aggregates, the bounded
// sensing histories, the reused round-game scratch, and the Try variants
// of the allocator and placement admission checks.
func TestFleetSteadyStateAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state probe steps a 10k-vehicle fleet for 200 simulated seconds")
	}
	base, err := scenario.Load("../../testdata/scenarios/metro-10k.json")
	if err != nil {
		t.Fatal(err)
	}
	perFleet := make(map[int]float64)
	for _, fleet := range []int{1000, 10000} {
		sc := *base
		sc.Vehicles = fleet
		cfg, err := sc.CompileConfig()
		if err != nil {
			t.Fatal(err)
		}
		p, err := sim.NewPricerFromSpec(sim.PricerSpec{Name: "random"}, sim.PricerBuildOptions{DefaultSeed: sc.Seed})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Pricer = p
		sm, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sm.RunFor(200) // past the spawn/attach/history-growth transient
		allocs := testing.AllocsPerRun(20, func() { sm.Step() })
		t.Logf("fleet=%d steady allocs/tick = %v", fleet, allocs)
		perFleet[fleet] = allocs
		if allocs > 150 {
			t.Errorf("fleet=%d: %v allocs/tick in steady state, want <= 150", fleet, allocs)
		}
	}
	if small, big := perFleet[1000], perFleet[10000]; big > 3*small+50 {
		t.Errorf("allocs/tick grew with fleet size: %v at 1000 vehicles, %v at 10000", small, big)
	}
}

// TestMetroRunBytesBounded is the byte-volume gate beside the
// allocation-count gate above: a few large allocations (a lag table per
// seeded stream, a scratch regrown at exactly each new round size) barely
// move an allocation count but dominate the heap, so the committed
// metro-10k run — the benchmark's sim-metro workload — is bounded in
// bytes too: sim.New, which spawns and places the 10,000-vehicle fleet,
// and then the scenario's 90 one-second ticks.
func TestMetroRunBytesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("steps the committed 10k-vehicle scenario for 90 simulated seconds")
	}
	sc, err := scenario.Load("../../testdata/scenarios/metro-10k.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.Compile(sim.PricerBuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sm *sim.Simulator
	newBytes := allocatedBytes(func() {
		if sm, err = sim.New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	tickBytes := allocatedBytes(func() { sm.RunFor(cfg.DurationS) })
	const mb = 1_000_000
	t.Logf("sim.New allocated %.1f MB; %g ticks allocated %.1f MB", float64(newBytes)/mb, cfg.DurationS/cfg.TimeStepS, float64(tickBytes)/mb)
	if newBytes > 8*mb {
		t.Errorf("sim.New allocated %d bytes, want <= 8 MB", newBytes)
	}
	if tickBytes > 24*mb {
		t.Errorf("the run's ticks allocated %d bytes, want <= 24 MB", tickBytes)
	}
}

// allocatedBytes returns the heap bytes allocated while f runs.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
