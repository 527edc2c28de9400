package sim

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"vtmig/internal/rsu"
	"vtmig/internal/stackelberg"
	"vtmig/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no vehicles", func(c *Config) { c.Vehicles = 0 }},
		{"bad speeds", func(c *Config) { c.SpeedMinMps = 30; c.SpeedMaxMps = 20 }},
		{"zero step", func(c *Config) { c.TimeStepS = 0 }},
		{"bad alpha", func(c *Config) { c.AlphaMin = 0 }},
		{"bad memory", func(c *Config) { c.VTMemoryMinMB = 0 }},
		{"bad failure rate", func(c *Config) { c.PricingFailureRate = 1 }},
		{"nil pricer", func(c *Config) { c.Pricer = nil }},
		{"bad prices", func(c *Config) { c.PMax = c.Cost }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestRunProducesMigrations(t *testing.T) {
	cfg := DefaultConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := s.Run()
	if rep.Handovers == 0 {
		t.Fatal("no handovers in 600 simulated seconds of 20-35 m/s traffic")
	}
	if len(rep.Migrations) == 0 {
		t.Fatal("no completed migrations")
	}
	if rep.PricingRounds == 0 {
		t.Fatal("no pricing rounds")
	}
	if rep.MSPRevenue <= 0 {
		t.Errorf("MSP revenue = %v, want > 0", rep.MSPRevenue)
	}
	if rep.MeanAoTM <= 0 {
		t.Errorf("mean AoTM = %v, want > 0", rep.MeanAoTM)
	}
	if rep.PricerName != "stackelberg-oracle" {
		t.Errorf("pricer name = %q", rep.PricerName)
	}
}

func TestMigrationRecordsConsistent(t *testing.T) {
	cfg := DefaultConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := s.Run()
	for i, m := range rep.Migrations {
		if m.BandwidthMHz <= 0 {
			t.Errorf("migration %d: bandwidth %v", i, m.BandwidthMHz)
		}
		if m.Price < cfg.Cost || m.Price > cfg.PMax {
			t.Errorf("migration %d: price %v outside [C, pmax]", i, m.Price)
		}
		if m.AoTM <= 0 {
			t.Errorf("migration %d: AoTM %v", i, m.AoTM)
		}
		if m.DataMovedMB < cfg.VTMemoryMinMB {
			t.Errorf("migration %d: moved %v MB, less than any twin footprint", i, m.DataMovedMB)
		}
		if m.DowntimeS > m.DurationS {
			t.Errorf("migration %d: downtime %v > duration %v", i, m.DowntimeS, m.DurationS)
		}
		if m.FromRSU == m.ToRSU {
			t.Errorf("migration %d: self-migration RSU %d", i, m.FromRSU)
		}
		if m.MSPProfit < 0 {
			t.Errorf("migration %d: negative MSP profit %v", i, m.MSPProfit)
		}
	}
}

func TestBandwidthNeverOversubscribed(t *testing.T) {
	// With many vehicles and small Bmax, concurrent migrations compete;
	// the allocator must keep Σ grants ≤ Bmax at all times. The allocator
	// itself enforces this; here we verify the simulator respects grant
	// accounting end to end (Run panics on corrupted accounting).
	cfg := DefaultConfig()
	cfg.Vehicles = 12
	cfg.BMaxMHz = 0.2
	cfg.DurationS = 400
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := s.Run()
	for i, m := range rep.Migrations {
		if m.BandwidthMHz > cfg.BMaxMHz+1e-9 {
			t.Errorf("migration %d: grant %v exceeds Bmax %v", i, m.BandwidthMHz, cfg.BMaxMHz)
		}
	}
}

func TestFailureInjectionDefersRounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PricingFailureRate = 0.5
	cfg.Seed = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := s.Run()
	if rep.FailedRounds == 0 {
		t.Error("failure rate 0.5 produced no failed rounds")
	}
	if rep.Deferred == 0 {
		t.Error("failed rounds must defer migrations")
	}
	// Migrations must still eventually complete.
	if len(rep.Migrations) == 0 {
		t.Error("no migrations completed despite retries")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() Report {
		cfg := DefaultConfig()
		cfg.Seed = 99
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s.Run()
	}
	a, b := run(), run()
	if len(a.Migrations) != len(b.Migrations) || a.MSPRevenue != b.MSPRevenue {
		t.Errorf("same seed diverged: %d/%v vs %d/%v",
			len(a.Migrations), a.MSPRevenue, len(b.Migrations), b.MSPRevenue)
	}
}

func TestPricerComparisonOracleBeatsRandom(t *testing.T) {
	revenue := func(p Pricer, seed int64) float64 {
		cfg := DefaultConfig()
		cfg.Pricer = p
		cfg.Seed = seed
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s.Run().MSPRevenue
	}
	var oracle, random float64
	for seed := int64(0); seed < 5; seed++ {
		oracle += revenue(NewOraclePricer(), seed)
		random += revenue(NewRandomPricer(seed), seed)
	}
	if oracle <= random {
		t.Errorf("oracle revenue %v must beat random %v", oracle, random)
	}
}

// TestOraclePricerSharedAcrossGoroutines prices rounds of changing size
// through one oracle pricer from several goroutines at once, as copies of
// one config do when their simulators run concurrently: every price must
// equal a fresh Solve's bit for bit, whichever solve got the kept scratch.
func TestOraclePricerSharedAcrossGoroutines(t *testing.T) {
	p := NewOraclePricer()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := stackelberg.DefaultGame()
			for round := 0; round < 200; round++ {
				g := *base
				g.VMUs = make([]stackelberg.VMU, 1+rng.Intn(60))
				for i := range g.VMUs {
					g.VMUs[i] = stackelberg.VMU{ID: i, Alpha: 5 + 15*rng.Float64(), DataSize: 1 + 2*rng.Float64()}
				}
				if round%3 == 0 {
					g.BMax = 0
				}
				if got, want := p.PriceFor(&g), g.Solve().Price; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("worker %d round %d (%d VMUs): price %v, want %v", w, round, g.N(), got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestFixedPricerName(t *testing.T) {
	p := NewFixedPricer(30)
	if p.Name() != "fixed(30)" {
		t.Errorf("name = %q", p.Name())
	}
	if got := p.PriceFor(stackelberg.DefaultGame()); got != 30 {
		t.Errorf("price = %v, want 30", got)
	}
}

func TestPricerFuncAdapter(t *testing.T) {
	p := PricerFunc{Label: "learned", Fn: func(g *stackelberg.Game) float64 { return g.Cost + 1 }}
	if p.Name() != "learned" {
		t.Errorf("name = %q", p.Name())
	}
	if got := p.PriceFor(stackelberg.DefaultGame()); got != 6 {
		t.Errorf("price = %v, want 6", got)
	}
}

func TestHigherDirtyRateMovesMoreData(t *testing.T) {
	run := func(dirty float64) float64 {
		cfg := DefaultConfig()
		cfg.DirtyRateMBps = dirty
		cfg.Seed = 7
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rep := s.Run()
		var total float64
		for _, m := range rep.Migrations {
			total += m.DataMovedMB
		}
		if len(rep.Migrations) == 0 {
			t.Fatal("no migrations")
		}
		return total / float64(len(rep.Migrations))
	}
	if clean, dirty := run(1), run(60); dirty <= clean {
		t.Errorf("dirtier twins must move more data per migration: %v vs %v", dirty, clean)
	}
}

func TestSensingAoIReported(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationS = 200
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := s.Run()
	// Steady-state periodic AoI is period/2 + delay = 0.30 s; migration
	// downtime can only push the average up.
	if rep.MeanSensingAoI < 0.29 {
		t.Errorf("mean sensing AoI = %v, want >= 0.29 (period/2 + delay)", rep.MeanSensingAoI)
	}
	if rep.MeanSensingAoI > 5 {
		t.Errorf("mean sensing AoI = %v, implausibly stale", rep.MeanSensingAoI)
	}
}

func TestSensingAoIDegradesWithSlowerSensing(t *testing.T) {
	run := func(period float64) float64 {
		cfg := DefaultConfig()
		cfg.DurationS = 200
		cfg.SensingPeriodS = period
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s.Run().MeanSensingAoI
	}
	if fast, slow := run(0.5), run(2.0); slow <= fast {
		t.Errorf("slower sensing must be staler: %v vs %v", slow, fast)
	}
}

func TestTwinPlacementFollowsMigrations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationS = 300
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := s.Run()
	if rep.PlacementFailures > 0 {
		t.Errorf("placement failures = %d with ample capacity", rep.PlacementFailures)
	}
	// After the run, every vehicle's twin must be placed on some server.
	for id := range cfg.Vehicles {
		if s.cluster.Locate(id) < 0 {
			t.Errorf("vehicle %d twin unplaced after run", id)
		}
	}
}

func TestPlacementFailuresWithTinyRSUs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationS = 300
	cfg.Vehicles = 10
	// Each RSU fits at most one twin; co-located twins must fail over.
	cfg.RSUCapacity = rsu.Resources{CPU: 1.6, GPU: 1, MemoryGB: 2, StorageGB: 4}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := s.Run()
	if rep.PlacementFailures == 0 {
		t.Error("expected placement failures with tiny RSU capacity")
	}
}

func TestSensingConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SensingPeriodS = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero sensing period must fail validation")
	}
	cfg = DefaultConfig()
	cfg.SensingDelayS = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative sensing delay must fail validation")
	}
	cfg = DefaultConfig()
	cfg.RSUCapacity.CPU = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative RSU capacity must fail validation")
	}
}

func TestTraceEmission(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.DurationS = 200
	cfg.TraceWriter = &buf
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := s.Run()
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	sum := trace.Summarize(events)
	if got := sum.Counts[trace.KindHandover]; got != rep.Handovers {
		t.Errorf("traced handovers = %d, report %d", got, rep.Handovers)
	}
	if got := sum.Counts[trace.KindPricingRound]; got != rep.PricingRounds {
		t.Errorf("traced pricing rounds = %d, report %d", got, rep.PricingRounds)
	}
	if got := sum.Counts[trace.KindMigrationComplete]; got != len(rep.Migrations) {
		t.Errorf("traced completions = %d, report %d", got, len(rep.Migrations))
	}
	if sum.MeanRoundPrice <= 0 {
		t.Error("mean traced price must be positive")
	}
}
