package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// shortConfig is a fast valid baseline for workload-dimension tests.
func shortConfig() Config {
	cfg := DefaultConfig()
	cfg.DurationS = 120
	cfg.Seed = 7
	return cfg
}

func runReport(t *testing.T, cfg Config) Report {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s.Run()
}

// reportsEqual compares the full report including every migration record.
func reportsEqual(a, b Report) bool {
	return reflect.DeepEqual(a, b)
}

func TestGridWorldSimulation(t *testing.T) {
	cfg := shortConfig()
	cfg.Mobility = MobilityGrid
	cfg.RSUCount = 0
	cfg.Grid = GridConfig{Rows: 3, Cols: 3, SpacingM: 400}
	cfg.RSURadiusM = 300
	rep := runReport(t, cfg)
	if rep.Handovers == 0 {
		t.Fatal("grid scenario produced no handovers")
	}
	if !reportsEqual(rep, runReport(t, cfg)) {
		t.Fatal("grid simulation is not deterministic for a fixed seed")
	}
}

func TestChurnArrivalsAndDepartures(t *testing.T) {
	cfg := shortConfig()
	cfg.DurationS = 300
	cfg.Churn = ChurnConfig{ArrivalRatePerS: 0.05, MeanDwellS: 60, MaxVehicles: 12}
	rep := runReport(t, cfg)
	if rep.Arrivals == 0 {
		t.Fatal("churn produced no arrivals over 300 s at rate 0.05/s")
	}
	if rep.Departures == 0 {
		t.Fatal("churn produced no departures with 60 s mean dwell")
	}
	if !reportsEqual(rep, runReport(t, cfg)) {
		t.Fatal("churn simulation is not deterministic for a fixed seed")
	}
	// The churn stream is separate from the main stream: the same run
	// with a different churn seed keeps the initial fleet's profiles (the
	// first pricing rounds match until populations diverge), while the
	// arrival pattern changes.
	cfg2 := cfg
	cfg2.Churn.Seed = 999
	rep2 := runReport(t, cfg2)
	if rep.Arrivals == rep2.Arrivals && rep.Departures == rep2.Departures && reportsEqual(rep, rep2) {
		t.Fatal("changing only Churn.Seed changed nothing — churn stream looks unused")
	}
}

func TestChurnMaxVehiclesCap(t *testing.T) {
	cfg := shortConfig()
	cfg.Vehicles = 4
	cfg.DurationS = 200
	cfg.Churn = ChurnConfig{ArrivalRatePerS: 1.0, MeanDwellS: 1e6, MaxVehicles: 6}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(cfg.DurationS)
	if got := len(s.vehicles); got > 6 {
		t.Fatalf("fleet grew to %d vehicles despite MaxVehicles 6", got)
	}
	rep := s.Finish()
	if rep.Arrivals != 2 {
		t.Fatalf("Arrivals = %d, want 2 (cap 6 minus initial 4, dwell effectively infinite)", rep.Arrivals)
	}
}

func TestOutagesForceRehoming(t *testing.T) {
	cfg := shortConfig()
	// One RSU down for most of the run: vehicles near it must attach
	// elsewhere, changing the handover pattern vs the outage-free run.
	cfg.Outages = []OutageWindow{{RSU: 2, StartS: 10, EndS: 100}}
	rep := runReport(t, cfg)
	base := cfg
	base.Outages = nil
	baseRep := runReport(t, base)
	if reportsEqual(rep, baseRep) {
		t.Fatal("scheduling an outage changed nothing")
	}
	for _, m := range rep.Migrations {
		if m.StartS >= 10 && m.StartS < 100 && m.ToRSU == 2 {
			t.Fatalf("migration at t=%g targets RSU 2 during its outage", m.StartS)
		}
	}
	if !reportsEqual(rep, runReport(t, cfg)) {
		t.Fatal("outage simulation is not deterministic for a fixed seed")
	}
}

func TestDemandCycleChangesWorkload(t *testing.T) {
	cfg := shortConfig()
	cfg.Demand = DemandConfig{PeriodS: 60, DayFraction: 0.5, NightSpeedFactor: 0.2, NightSensingFactor: 4}
	rep := runReport(t, cfg)
	base := cfg
	base.Demand = DemandConfig{}
	baseRep := runReport(t, base)
	if rep.Handovers >= baseRep.Handovers {
		t.Fatalf("night slowdown should cut handovers: %d with cycle, %d without", rep.Handovers, baseRep.Handovers)
	}
	if !reportsEqual(rep, runReport(t, cfg)) {
		t.Fatal("demand-cycle simulation is not deterministic for a fixed seed")
	}
}

func TestVehicleClassesResolveAndDraw(t *testing.T) {
	cfg := shortConfig()
	cfg.Vehicles = 12
	cfg.Classes = []VehicleClass{
		{Name: "sedan", Weight: 3},
		{Name: "sensor-truck", Weight: 1, SpeedMinMps: 8, SpeedMaxMps: 12, SensingPeriodS: 0.1, VTMemoryMinMB: 280, VTMemoryMaxMB: 300},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow := 0
	for _, st := range s.vehicles {
		if st.v.SpeedMps <= 12 {
			slow++
			if st.sensingPeriodS != 0.1 {
				t.Fatalf("slow-class vehicle has sensing period %g, want the class override 0.1", st.sensingPeriodS)
			}
		} else if st.sensingPeriodS != cfg.SensingPeriodS {
			t.Fatalf("default-class vehicle has sensing period %g, want %g", st.sensingPeriodS, cfg.SensingPeriodS)
		}
	}
	if slow == 0 || slow == len(s.vehicles) {
		t.Fatalf("class mix degenerate: %d/%d slow vehicles", slow, len(s.vehicles))
	}
	rep := s.Run()
	if !reportsEqual(rep, runReport(t, cfg)) {
		t.Fatal("class-heterogeneous simulation is not deterministic for a fixed seed")
	}
}

func TestCombinedNonstationaryRun(t *testing.T) {
	cfg := shortConfig()
	cfg.Mobility = MobilityGrid
	cfg.RSUCount = 0
	cfg.Grid = GridConfig{Rows: 3, Cols: 3, SpacingM: 500}
	cfg.RSURadiusM = 350
	cfg.Churn = ChurnConfig{ArrivalRatePerS: 0.03, MeanDwellS: 80, MaxVehicles: 10}
	cfg.Outages = []OutageWindow{{RSU: 4, StartS: 20, EndS: 70}, {RSU: 0, StartS: 60, EndS: 110}}
	cfg.Demand = DemandConfig{PeriodS: 80, DayFraction: 0.6, NightSpeedFactor: 0.4, NightSensingFactor: 2}
	cfg.Classes = []VehicleClass{{Name: "a", Weight: 2}, {Name: "b", Weight: 1, AlphaMin: 15, AlphaMax: 20}}
	rep := runReport(t, cfg)
	if rep.PricingRounds == 0 {
		t.Fatal("combined non-stationary scenario priced nothing")
	}
	if !reportsEqual(rep, runReport(t, cfg)) {
		t.Fatal("combined non-stationary simulation is not deterministic for a fixed seed")
	}
}

// mixedWorkloadConfig stacks every order-sensitive subsystem in one
// fixture: the grid world with per-vehicle turn streams, heterogeneous
// classes, churn, RSU outages, the day/night demand cycle, and injected
// pricing failures.
func mixedWorkloadConfig() Config {
	cfg := DefaultConfig()
	cfg.Mobility = MobilityGrid
	cfg.RSUCount = 0
	cfg.Grid = GridConfig{Rows: 5, Cols: 6, SpacingM: 400}
	cfg.RSURadiusM = 320
	cfg.Vehicles = 36
	cfg.TimeStepS = 0.5
	cfg.DurationS = 300
	cfg.Seed = 13
	cfg.Classes = []VehicleClass{
		{Name: "commuter", Weight: 3},
		{Name: "freight", Weight: 1, SpeedMinMps: 8, SpeedMaxMps: 14, VTMemoryMinMB: 220, VTMemoryMaxMB: 300},
	}
	cfg.Churn = ChurnConfig{ArrivalRatePerS: 0.2, MeanDwellS: 120, MaxVehicles: 60}
	cfg.Outages = []OutageWindow{
		{RSU: 7, StartS: 40, EndS: 90},
		{RSU: 22, StartS: 120, EndS: 200},
	}
	cfg.Demand = DemandConfig{PeriodS: 100, DayFraction: 0.6, NightSpeedFactor: 0.5, NightSensingFactor: 2}
	cfg.PricingFailureRate = 0.02
	return cfg
}

// TestDiscardMigrationRecordsKeepsAggregates pins the streaming report:
// discarding per-migration records must change nothing but the record
// slice itself.
func TestDiscardMigrationRecordsKeepsAggregates(t *testing.T) {
	fullRep := runReport(t, mixedWorkloadConfig())
	if fullRep.Completed == 0 || fullRep.Arrivals == 0 || fullRep.FailedRounds == 0 {
		t.Fatalf("workload is trivial: %+v", fullRep)
	}
	cfg := mixedWorkloadConfig()
	cfg.DiscardMigrationRecords = true
	leanRep := runReport(t, cfg)

	if leanRep.Migrations != nil {
		t.Fatalf("discard mode kept %d records", len(leanRep.Migrations))
	}
	if leanRep.Completed != len(fullRep.Migrations) {
		t.Fatalf("Completed = %d, want %d", leanRep.Completed, len(fullRep.Migrations))
	}
	fullRep.Migrations = nil
	if !reflect.DeepEqual(fullRep, leanRep) {
		t.Fatalf("aggregates diverged:\nfull: %+v\nlean: %+v", fullRep, leanRep)
	}
}

// TestValidateNamedFieldErrors pins that every rejected field names
// itself in the error (the PR 6 convention).
func TestValidateNamedFieldErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"vehicles", func(c *Config) { c.Vehicles = 0 }, "Config.Vehicles"},
		{"speed", func(c *Config) { c.SpeedMinMps = -1 }, "Config.SpeedMinMps"},
		{"speed NaN", func(c *Config) { c.SpeedMinMps = math.NaN() }, "Config.SpeedMinMps"},
		{"time step", func(c *Config) { c.TimeStepS = 0 }, "Config.TimeStepS"},
		{"duration", func(c *Config) { c.DurationS = -1 }, "Config.DurationS"},
		{"alpha", func(c *Config) { c.AlphaMax = c.AlphaMin - 1 }, "Config.AlphaMin"},
		{"memory", func(c *Config) { c.VTMemoryMinMB = 0 }, "Config.VTMemoryMinMB"},
		{"failure rate", func(c *Config) { c.PricingFailureRate = 1.5 }, "Config.PricingFailureRate"},
		{"pricer", func(c *Config) { c.Pricer = nil }, "Config.Pricer"},
		{"prices", func(c *Config) { c.PMax = c.Cost }, "Config.Cost/PMax"},
		{"sensing period", func(c *Config) { c.SensingPeriodS = 0 }, "Config.SensingPeriodS"},
		{"sensing delay", func(c *Config) { c.SensingDelayS = -1 }, "Config.SensingDelayS"},
		{"highway length", func(c *Config) { c.HighwayLengthM = 0 }, "Config.HighwayLengthM"},
		{"rsu count", func(c *Config) { c.RSUCount = 0 }, "Config.RSUCount"},
		{"rsu radius", func(c *Config) { c.RSURadiusM = 0 }, "Config.RSURadiusM"},
		{"mobility kind", func(c *Config) { c.Mobility = "teleport" }, "Config.Mobility"},
		{"grid dims", func(c *Config) {
			c.Mobility = MobilityGrid
			c.RSUCount = 0
			c.Grid = GridConfig{Rows: 1, Cols: 3, SpacingM: 100}
		}, "Config.Grid"},
		{"grid spacing", func(c *Config) { c.Mobility = MobilityGrid; c.RSUCount = 0; c.Grid = GridConfig{Rows: 3, Cols: 3} }, "Config.Grid.SpacingM"},
		{"grid rsu mismatch", func(c *Config) { c.Mobility = MobilityGrid; c.Grid = GridConfig{Rows: 3, Cols: 3, SpacingM: 100} }, "Config.RSUCount"},
		{"class weight", func(c *Config) { c.Classes = []VehicleClass{{Name: "x"}} }, "Config.Classes[0]"},
		{"class range", func(c *Config) { c.Classes = []VehicleClass{{Name: "x", Weight: 1, SpeedMinMps: 5, SpeedMaxMps: 2}} }, "Config.Classes[0]"},
		{"churn rate", func(c *Config) { c.Churn.ArrivalRatePerS = -0.1 }, "Config.Churn.ArrivalRatePerS"},
		{"churn rate NaN", func(c *Config) { c.Churn.ArrivalRatePerS = math.NaN() }, "Config.Churn.ArrivalRatePerS"},
		{"churn dwell", func(c *Config) { c.Churn = ChurnConfig{ArrivalRatePerS: 0.1} }, "Config.Churn.MeanDwellS"},
		{"churn cap", func(c *Config) { c.Churn = ChurnConfig{ArrivalRatePerS: 0.1, MeanDwellS: 10, MaxVehicles: -1} }, "Config.Churn.MaxVehicles"},
		{"outage rsu", func(c *Config) { c.Outages = []OutageWindow{{RSU: 99, StartS: 0, EndS: 1}} }, "Config.Outages[0]"},
		{"outage window", func(c *Config) { c.Outages = []OutageWindow{{RSU: 0, StartS: 5, EndS: 5}} }, "Config.Outages[0]"},
		{"demand period", func(c *Config) { c.Demand.PeriodS = math.Inf(1) }, "Config.Demand.PeriodS"},
		{"demand fraction", func(c *Config) {
			c.Demand = DemandConfig{PeriodS: 60, DayFraction: 1, NightSpeedFactor: 1, NightSensingFactor: 1}
		}, "Config.Demand.DayFraction"},
		{"demand speed", func(c *Config) { c.Demand = DemandConfig{PeriodS: 60, DayFraction: 0.5, NightSensingFactor: 1} }, "Config.Demand.NightSpeedFactor"},
		{"demand sensing", func(c *Config) { c.Demand = DemandConfig{PeriodS: 60, DayFraction: 0.5, NightSpeedFactor: 1} }, "Config.Demand.NightSensingFactor"},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the broken config", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}
