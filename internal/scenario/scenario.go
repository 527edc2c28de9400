// Package scenario provides the declarative workload layer of the
// simulator: a scenario is a named, self-contained description of one
// simulation — road world, fleet, churn, outages, demand cycle, and the
// MSP pricer — loadable from strict JSON files and compiled into
// a validated sim.Config.
//
// Scenarios are deterministic artifacts: compiling the same scenario
// (schema + seed) always yields the same configuration, including the
// expansion of generator blocks like OutageGen, whose windows are drawn
// from a dedicated splitmix64-derived stream. Committed scenario files
// under testdata/scenarios/ are pinned by per-pricer golden reports, the
// same convention as the simulator's own goldens (`make golden`).
package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"vtmig/internal/mathx"
	"vtmig/internal/sim"
)

// Mobility kinds.
const (
	KindHighway = "highway"
	KindGrid    = "grid"
)

// Mobility selects and parameterizes the road world. Zero-valued fields
// adopt the simulator defaults (8000 m highway, 8 RSUs, 500 m radius).
type Mobility struct {
	// Kind is the world type: "highway" (circular road) or "grid"
	// (Manhattan street grid, one RSU per intersection).
	Kind string `json:"kind"`
	// LengthM is the highway circumference in meters (highway only).
	LengthM float64 `json:"length_m,omitempty"`
	// RSUs is the RSU count (highway only; the grid derives rows×cols).
	RSUs int `json:"rsus,omitempty"`
	// RadiusM is the RSU coverage radius in meters (both kinds).
	RadiusM float64 `json:"radius_m,omitempty"`
	// Rows and Cols are the grid's street counts (grid only, ≥ 2).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// SpacingM is the grid's intersection spacing in meters (grid only).
	SpacingM float64 `json:"spacing_m,omitempty"`
	// TurnSeed seeds the per-vehicle turn streams (grid only; 0 adopts
	// the scenario seed).
	TurnSeed int64 `json:"turn_seed,omitempty"`
}

// VehicleClass is one heterogeneous vehicle population; zero-valued
// range fields adopt the scenario's top-level ranges (see
// sim.VehicleClass).
type VehicleClass struct {
	Name           string  `json:"name"`
	Weight         float64 `json:"weight"`
	SpeedMinMps    float64 `json:"speed_min_mps,omitempty"`
	SpeedMaxMps    float64 `json:"speed_max_mps,omitempty"`
	AlphaMin       float64 `json:"alpha_min,omitempty"`
	AlphaMax       float64 `json:"alpha_max,omitempty"`
	VTMemoryMinMB  float64 `json:"vt_memory_min_mb,omitempty"`
	VTMemoryMaxMB  float64 `json:"vt_memory_max_mb,omitempty"`
	SensingPeriodS float64 `json:"sensing_period_s,omitempty"`
}

// Churn configures Poisson vehicle arrivals and exponential-dwell
// departures (see sim.ChurnConfig).
type Churn struct {
	ArrivalRatePerS float64 `json:"arrival_rate_per_s"`
	MeanDwellS      float64 `json:"mean_dwell_s,omitempty"`
	MaxVehicles     int     `json:"max_vehicles,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
}

// Outage is one scheduled RSU downtime window.
type Outage struct {
	RSU    int     `json:"rsu"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// OutageGen declaratively generates outage windows instead of (or in
// addition to) listing them: Count windows with exponentially
// distributed durations of mean MeanDurationS, each on a uniformly drawn
// RSU at a uniformly drawn start time. Expansion is seed-deterministic —
// the windows depend only on the generator's fields, the effective RSU
// count, the scenario duration and time step, and the seed, never on
// anything else in the scenario.
type OutageGen struct {
	// Count is the number of windows to generate.
	Count int `json:"count"`
	// MeanDurationS is the mean window length in seconds.
	MeanDurationS float64 `json:"mean_duration_s"`
	// Seed isolates the generator stream; 0 adopts the scenario seed.
	// Either way the stream is splitmix64-derived, so it never overlaps
	// the simulation's own draws.
	Seed int64 `json:"seed,omitempty"`
}

// Demand configures the day/night demand cycle (see sim.DemandConfig).
// An unset night factor compiles to 1 (no effect), so a scenario states
// only the dimension it modulates.
type Demand struct {
	PeriodS            float64 `json:"period_s"`
	DayFraction        float64 `json:"day_fraction"`
	NightSpeedFactor   float64 `json:"night_speed_factor,omitempty"`
	NightSensingFactor float64 `json:"night_sensing_factor,omitempty"`
}

// Scenario is one declarative simulation description. Zero-valued fields
// adopt the sim.DefaultConfig values, so a scenario states only what it
// changes about the default 6-vehicle highway world.
type Scenario struct {
	// Name identifies the scenario (golden files, reports, logs).
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Seed drives all simulation randomness (0 adopts the default 1).
	Seed int64 `json:"seed,omitempty"`
	// DurationS is the simulated horizon, TimeStepS the mobility step.
	DurationS float64 `json:"duration_s,omitempty"`
	TimeStepS float64 `json:"time_step_s,omitempty"`
	// Vehicles is the fleet size at t = 0.
	Vehicles int `json:"vehicles,omitempty"`
	// SpeedMinMps/SpeedMaxMps bound the per-vehicle constant speeds.
	SpeedMinMps float64 `json:"speed_min_mps,omitempty"`
	SpeedMaxMps float64 `json:"speed_max_mps,omitempty"`
	// AlphaMin/AlphaMax bound the VMU immersion coefficients.
	AlphaMin float64 `json:"alpha_min,omitempty"`
	AlphaMax float64 `json:"alpha_max,omitempty"`
	// VTMemoryMinMB/VTMemoryMaxMB bound the twins' memory footprints.
	VTMemoryMinMB float64 `json:"vt_memory_min_mb,omitempty"`
	VTMemoryMaxMB float64 `json:"vt_memory_max_mb,omitempty"`
	// SensingPeriodS/SensingDelayS model the sensing stream.
	SensingPeriodS float64 `json:"sensing_period_s,omitempty"`
	SensingDelayS  float64 `json:"sensing_delay_s,omitempty"`
	// FailureRate injects pricing-round control-plane failures.
	FailureRate float64 `json:"failure_rate,omitempty"`
	// Mobility selects the road world; nil keeps the default highway.
	Mobility *Mobility `json:"mobility,omitempty"`
	// Classes partitions spawns into heterogeneous populations.
	Classes []VehicleClass `json:"classes,omitempty"`
	// Churn enables vehicle arrivals/departures.
	Churn *Churn `json:"churn,omitempty"`
	// Outages schedules explicit RSU downtime windows; OutageGen
	// generates additional ones deterministically.
	Outages   []Outage   `json:"outages,omitempty"`
	OutageGen *OutageGen `json:"outage_gen,omitempty"`
	// Demand enables the day/night demand cycle.
	Demand *Demand `json:"demand,omitempty"`
	// Shards is not part of the schema: a document carrying "shards"
	// fails to load as an unknown field.
	//
	// Deprecated: nothing in the simulator reads it. bench/simmetro.go is
	// its only writer; the field goes once that hook does.
	Shards int `json:"-"`
	// DiscardMigrationRecords drops the per-migration records from the
	// report, keeping only the streaming aggregates — the fleet-scale mode
	// whose report memory stays flat in migration count.
	DiscardMigrationRecords bool `json:"discard_migration_records,omitempty"`
	// Pricer is the MSP pricing strategy (empty name: "oracle").
	Pricer sim.PricerSpec `json:"pricer,omitempty"`
}

// Validate checks the scenario: its own structural invariants plus
// everything sim.Config.Validate enforces on the compiled configuration.
// A scenario that validates compiles and constructs.
func (s *Scenario) Validate() error {
	_, err := s.CompileConfig()
	return err
}

// validateShape checks the scenario-level invariants the compiled
// sim.Config cannot express.
func (s *Scenario) validateShape() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: Name must be set")
	}
	if s.Mobility != nil {
		switch s.Mobility.Kind {
		case KindHighway, KindGrid:
		default:
			return fmt.Errorf("scenario: Mobility.Kind %q unknown (want %q or %q)", s.Mobility.Kind, KindHighway, KindGrid)
		}
	}
	if g := s.OutageGen; g != nil {
		if g.Count < 0 {
			return fmt.Errorf("scenario: OutageGen.Count %d must not be negative", g.Count)
		}
		if g.Count > 0 {
			if !(g.MeanDurationS > 0) || math.IsInf(g.MeanDurationS, 0) {
				return fmt.Errorf("scenario: OutageGen.MeanDurationS must be positive and finite, got %g", g.MeanDurationS)
			}
		}
	}
	return nil
}

// CompileConfig compiles the scenario into a validated simulator
// configuration with generator blocks expanded. The returned Config has
// no Pricer — build one from the Pricer spec (BuildPricer or
// sim.NewPricerFromSpec) or assign your own before sim.New.
//
// Compilation is pure and deterministic: the same scenario value always
// yields the same configuration, bit for bit.
func (s *Scenario) CompileConfig() (sim.Config, error) {
	if err := s.validateShape(); err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig()
	cfg.Pricer = nil
	setF := func(dst *float64, v float64) {
		if v != 0 {
			*dst = v
		}
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	setF(&cfg.DurationS, s.DurationS)
	setF(&cfg.TimeStepS, s.TimeStepS)
	if s.Vehicles != 0 {
		cfg.Vehicles = s.Vehicles
	}
	setF(&cfg.SpeedMinMps, s.SpeedMinMps)
	setF(&cfg.SpeedMaxMps, s.SpeedMaxMps)
	setF(&cfg.AlphaMin, s.AlphaMin)
	setF(&cfg.AlphaMax, s.AlphaMax)
	setF(&cfg.VTMemoryMinMB, s.VTMemoryMinMB)
	setF(&cfg.VTMemoryMaxMB, s.VTMemoryMaxMB)
	setF(&cfg.SensingPeriodS, s.SensingPeriodS)
	setF(&cfg.SensingDelayS, s.SensingDelayS)
	setF(&cfg.PricingFailureRate, s.FailureRate)

	if m := s.Mobility; m != nil {
		switch m.Kind {
		case KindHighway:
			setF(&cfg.HighwayLengthM, m.LengthM)
			if m.RSUs != 0 {
				cfg.RSUCount = m.RSUs
			}
			setF(&cfg.RSURadiusM, m.RadiusM)
		case KindGrid:
			cfg.Mobility = sim.MobilityGrid
			cfg.RSUCount = 0
			cfg.Grid = sim.GridConfig{Rows: m.Rows, Cols: m.Cols, SpacingM: m.SpacingM, TurnSeed: m.TurnSeed}
			setF(&cfg.RSURadiusM, m.RadiusM)
		}
	}
	for _, c := range s.Classes {
		cfg.Classes = append(cfg.Classes, sim.VehicleClass{
			Name: c.Name, Weight: c.Weight,
			SpeedMinMps: c.SpeedMinMps, SpeedMaxMps: c.SpeedMaxMps,
			AlphaMin: c.AlphaMin, AlphaMax: c.AlphaMax,
			VTMemoryMinMB: c.VTMemoryMinMB, VTMemoryMaxMB: c.VTMemoryMaxMB,
			SensingPeriodS: c.SensingPeriodS,
		})
	}
	if c := s.Churn; c != nil {
		cfg.Churn = sim.ChurnConfig{
			ArrivalRatePerS: c.ArrivalRatePerS, MeanDwellS: c.MeanDwellS,
			MaxVehicles: c.MaxVehicles, Seed: c.Seed,
		}
	}
	for _, o := range s.Outages {
		cfg.Outages = append(cfg.Outages, sim.OutageWindow{RSU: o.RSU, StartS: o.StartS, EndS: o.EndS})
	}
	if g := s.OutageGen; g != nil && g.Count > 0 {
		windows, err := s.generateOutages(cfg)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Outages = append(cfg.Outages, windows...)
	}
	if d := s.Demand; d != nil {
		cfg.Demand = sim.DemandConfig{
			PeriodS: d.PeriodS, DayFraction: d.DayFraction,
			NightSpeedFactor: d.NightSpeedFactor, NightSensingFactor: d.NightSensingFactor,
		}
		if cfg.Demand.NightSpeedFactor == 0 {
			cfg.Demand.NightSpeedFactor = 1
		}
		if cfg.Demand.NightSensingFactor == 0 {
			cfg.Demand.NightSensingFactor = 1
		}
	}
	cfg.DiscardMigrationRecords = s.DiscardMigrationRecords

	// Validate through a probe with a placeholder pricer: the caller
	// supplies the real one, but everything else must already be sound.
	probe := cfg
	probe.Pricer = sim.NewOraclePricer()
	if err := probe.Validate(); err != nil {
		return sim.Config{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return cfg, nil
}

// outageGenStream tags the generator's splitmix64 stream so it can never
// collide with the churn stream (stream 0) derived from the same seed.
const outageGenStream = 0x0106e5

// generateOutages expands an OutageGen block. Draw order per window —
// RSU, start, duration — is part of the scenario format: reordering
// would silently change every generated scenario.
func (s *Scenario) generateOutages(cfg sim.Config) ([]sim.OutageWindow, error) {
	rsus := cfg.EffectiveRSUCount()
	if rsus < 1 {
		return nil, fmt.Errorf("scenario %q: OutageGen needs a world with RSUs", s.Name)
	}
	if !(cfg.DurationS > 0) || math.IsInf(cfg.DurationS, 0) {
		return nil, fmt.Errorf("scenario %q: OutageGen needs a positive finite duration, got %g", s.Name, cfg.DurationS)
	}
	seed := s.OutageGen.Seed
	if seed == 0 {
		seed = cfg.Seed
	}
	rng := rand.New(rand.NewSource(mathx.SplitMix64(seed, outageGenStream)))
	windows := make([]sim.OutageWindow, 0, s.OutageGen.Count)
	for i := 0; i < s.OutageGen.Count; i++ {
		rsu := rng.Intn(rsus)
		start := rng.Float64() * cfg.DurationS
		dur := rng.ExpFloat64() * s.OutageGen.MeanDurationS
		if dur < cfg.TimeStepS {
			// A sub-step window would never be observed; round it up so
			// every generated outage is visible in the simulation.
			dur = cfg.TimeStepS
		}
		windows = append(windows, sim.OutageWindow{RSU: rsu, StartS: start, EndS: start + dur})
	}
	return windows, nil
}

// BuildPricer builds the scenario's pricer spec through the sim registry.
// An empty spec name selects "oracle"; a zero opts.DefaultSeed adopts the
// scenario seed, so stochastic pricers inherit the scenario's
// determinism.
func (s *Scenario) BuildPricer(opts sim.PricerBuildOptions) (sim.Pricer, error) {
	spec := s.Pricer
	if spec.Name == "" {
		spec.Name = "oracle"
	}
	if opts.DefaultSeed == 0 {
		opts.DefaultSeed = s.Seed
		if opts.DefaultSeed == 0 {
			opts.DefaultSeed = 1
		}
	}
	return sim.NewPricerFromSpec(spec, opts)
}

// Compile compiles the scenario AND builds its pricer: the returned
// configuration is ready for sim.New. Learning pricers ("drl", "online")
// may train here; use CompileConfig when you only need the workload.
func (s *Scenario) Compile(opts sim.PricerBuildOptions) (sim.Config, error) {
	cfg, err := s.CompileConfig()
	if err != nil {
		return sim.Config{}, err
	}
	p, err := s.BuildPricer(opts)
	if err != nil {
		return sim.Config{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	cfg.Pricer = p
	return cfg, nil
}
