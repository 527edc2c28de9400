// Package sim is the end-to-end vehicular-metaverse simulator: vehicles
// drive along a highway of RSUs; every handover triggers a VT migration;
// each migration round runs the Stackelberg incentive mechanism to price
// bandwidth; granted bandwidth is held in an OFDMA pool while the pre-copy
// migration is in flight; and the Age of Twin Migration of every completed
// migration is recorded.
//
// The paper evaluates the mechanism in isolation; this simulator is the
// "prototype system" its conclusion lists as future work, and doubles as
// an integration harness for every substrate package.
package sim

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"

	"vtmig/internal/channel"
	"vtmig/internal/migration"
	"vtmig/internal/rsu"
	"vtmig/internal/stackelberg"
)

// Pricer decides the MSP's unit bandwidth price for one migration round.
type Pricer interface {
	// Name identifies the pricer in reports.
	Name() string
	// PriceFor returns the price for the given round's game.
	PriceFor(g *stackelberg.Game) float64
}

// oraclePricer plays the closed-form Stackelberg equilibrium each round,
// solving in a scratch it keeps across rounds, so a fleet-scale run does
// not allocate four follower-sized slices per round. Every copy of a
// config shares its pricer and those copies may run concurrently, so a
// solve that finds the scratch in use takes a fresh one; both solves
// return the same bits.
type oraclePricer struct {
	mu      sync.Mutex
	scratch stackelberg.EvalScratch
}

// NewOraclePricer returns the complete-information equilibrium pricer.
func NewOraclePricer() Pricer { return &oraclePricer{} }

func (*oraclePricer) Name() string { return "stackelberg-oracle" }
func (o *oraclePricer) PriceFor(g *stackelberg.Game) float64 {
	if !o.mu.TryLock() {
		return g.Solve().Price
	}
	defer o.mu.Unlock()
	return g.SolveInto(&o.scratch).Price
}

// fixedPricer posts a constant price.
type fixedPricer struct{ price float64 }

// NewFixedPricer returns a constant-price pricer.
func NewFixedPricer(price float64) Pricer { return fixedPricer{price: price} }

func (f fixedPricer) Name() string                         { return fmt.Sprintf("fixed(%.3g)", f.price) }
func (f fixedPricer) PriceFor(g *stackelberg.Game) float64 { return f.price }

// randomPricer draws a uniform price in [C, pmax] each round.
type randomPricer struct{ rng *rand.Rand }

// NewRandomPricer returns the paper's random baseline as a simulator
// pricer.
func NewRandomPricer(seed int64) Pricer {
	return &randomPricer{rng: rand.New(rand.NewSource(seed))}
}

func (r *randomPricer) Name() string { return "random" }
func (r *randomPricer) PriceFor(g *stackelberg.Game) float64 {
	return g.Cost + r.rng.Float64()*(g.PMax-g.Cost)
}

// PricerFunc adapts a function (e.g. a trained DRL policy closure) into a
// Pricer.
type PricerFunc struct {
	// Label names the pricer.
	Label string
	// Fn maps a round's game to a price.
	Fn func(g *stackelberg.Game) float64
}

// Name implements Pricer.
func (p PricerFunc) Name() string { return p.Label }

// PriceFor implements Pricer.
func (p PricerFunc) PriceFor(g *stackelberg.Game) float64 { return p.Fn(g) }

// Mobility kinds selectable via Config.Mobility.
const (
	// MobilityHighway is the circular highway world (the default; an
	// empty Config.Mobility means highway).
	MobilityHighway = "highway"
	// MobilityGrid is the Manhattan street-grid world with one RSU per
	// intersection.
	MobilityGrid = "grid"
)

// GridConfig parameterizes the Manhattan grid world (Config.Mobility ==
// MobilityGrid): Rows×Cols intersections spaced SpacingM apart, one RSU
// per intersection with coverage radius Config.RSURadiusM.
type GridConfig struct {
	// Rows and Cols count the horizontal and vertical streets (≥ 2 each).
	Rows, Cols int
	// SpacingM is the distance between adjacent parallel streets.
	SpacingM float64
	// TurnSeed salts the per-vehicle turn-decision RNG streams; 0 adopts
	// Config.Seed.
	TurnSeed int64
}

// VehicleClass describes one heterogeneous vehicle population. Zero
// fields adopt the corresponding top-level Config range, so a class only
// states what makes it different (the PR 6 adopt-or-match convention
// applied to workload description).
type VehicleClass struct {
	// Name labels the class in scenario files.
	Name string
	// Weight is the class's relative share of spawns (> 0; weights need
	// not sum to 1).
	Weight float64
	// SpeedMinMps and SpeedMaxMps override the speed range (both or
	// neither).
	SpeedMinMps, SpeedMaxMps float64
	// AlphaMin and AlphaMax override the immersion-coefficient range.
	AlphaMin, AlphaMax float64
	// VTMemoryMinMB and VTMemoryMaxMB override the twin-size range.
	VTMemoryMinMB, VTMemoryMaxMB float64
	// SensingPeriodS overrides the sensing update period.
	SensingPeriodS float64
}

// ChurnConfig turns on Poisson vehicle arrivals and exponential dwell
// departures. All churn randomness comes from a dedicated counted RNG
// stream (mathx.CountingSource) separate from the main simulation stream,
// so enabling churn never shifts the draws behind vehicle profiles or
// failure injection, and churn itself obeys the determinism contract.
type ChurnConfig struct {
	// ArrivalRatePerS is the Poisson arrival rate λ in vehicles per
	// simulated second; 0 disables churn entirely.
	ArrivalRatePerS float64
	// MeanDwellS is the mean of each vehicle's exponential dwell time.
	MeanDwellS float64
	// MaxVehicles caps the concurrent fleet (arrivals beyond it are
	// dropped); 0 means uncapped.
	MaxVehicles int
	// Seed seeds the churn stream; 0 derives a seed from Config.Seed.
	Seed int64
}

// Enabled reports whether churn is active.
func (c ChurnConfig) Enabled() bool { return c.ArrivalRatePerS > 0 }

// OutageWindow schedules one RSU outage: the RSU serves nobody while
// StartS ≤ t < EndS, so nearby vehicles re-home to the nearest live RSU
// (or go uncovered in a coverage hole).
type OutageWindow struct {
	// RSU is the affected RSU id.
	RSU int
	// StartS and EndS bound the outage in simulated seconds.
	StartS, EndS float64
}

// DemandConfig superimposes a day/night demand cycle: during the night
// fraction of each period vehicles slow down (fewer handovers, so less
// migration demand) and sensing updates thin out.
type DemandConfig struct {
	// PeriodS is the full day+night cycle length; 0 disables the cycle.
	PeriodS float64
	// DayFraction is the share of each period that is day (0 < f < 1).
	DayFraction float64
	// NightSpeedFactor scales vehicle speeds at night (> 0).
	NightSpeedFactor float64
	// NightSensingFactor scales sensing update periods at night (> 0; 2
	// means half the update rate).
	NightSensingFactor float64
}

// Enabled reports whether the demand cycle is active.
func (d DemandConfig) Enabled() bool { return d.PeriodS > 0 }

// Config parameterizes a simulation run.
type Config struct {
	// Mobility selects the road world: MobilityHighway ("" defaults to
	// it) or MobilityGrid.
	Mobility string
	// HighwayLengthM, RSUCount, and RSURadiusM build the highway
	// topology; RSURadiusM also serves as the grid RSU coverage radius.
	HighwayLengthM float64
	RSUCount       int
	RSURadiusM     float64
	// Grid configures the Manhattan grid world (Mobility == MobilityGrid).
	Grid GridConfig
	// Vehicles is the number of vehicles (= VMUs) at t = 0.
	Vehicles int
	// SpeedMinMps and SpeedMaxMps bound the per-vehicle constant speeds.
	SpeedMinMps, SpeedMaxMps float64
	// TimeStepS is the mobility update step in seconds.
	TimeStepS float64
	// DurationS is the simulated horizon in seconds.
	DurationS float64

	// Channel is the RSU-to-RSU link template; the per-round distance is
	// overridden with the actual source/destination RSU distance.
	Channel channel.Params
	// Cost, PMax, and BMaxMHz configure the MSP (model units).
	Cost, PMax, BMaxMHz float64

	// AlphaMin and AlphaMax bound the per-VMU immersion coefficients
	// (paper: [5, 20]).
	AlphaMin, AlphaMax float64
	// VTMemoryMinMB and VTMemoryMaxMB bound the twins' memory footprints
	// (paper: total data 100–300 MB).
	VTMemoryMinMB, VTMemoryMaxMB float64
	// DirtyRateMBps is the twins' page-dirty rate during migration.
	DirtyRateMBps float64

	// Pricer is the MSP's pricing strategy for migration rounds.
	Pricer Pricer
	// PricingFailureRate injects control-plane failures: with this
	// probability a round's pricing exchange is lost and the migrations
	// retry at the next step.
	PricingFailureRate float64

	// RSUCapacity is each RSU edge server's resource pool for hosting
	// twins.
	RSUCapacity rsu.Resources
	// TraceWriter, when non-nil, receives every simulation event as a
	// JSON line (see internal/trace).
	TraceWriter io.Writer
	// SensingPeriodS and SensingDelayS model the VMUs' physical-virtual
	// synchronization stream: one sensing update is generated every
	// period and delivered after the delay — except while the twin is
	// paused during stop-and-copy downtime, when updates are lost. The
	// report's sensing AoI aggregates the resulting age processes.
	SensingPeriodS, SensingDelayS float64

	// Classes partitions spawns into heterogeneous vehicle populations;
	// empty means one homogeneous population drawn from the top-level
	// ranges (and costs no extra RNG draws, keeping legacy runs
	// bit-identical).
	Classes []VehicleClass
	// Churn configures Poisson arrivals and exponential-dwell departures.
	Churn ChurnConfig
	// Outages schedules RSU downtime windows.
	Outages []OutageWindow
	// Demand configures the day/night demand cycle.
	Demand DemandConfig

	// DiscardMigrationRecords drops the per-migration records from the
	// report, keeping only the streaming aggregates (counts, revenue,
	// mean/max AoTM, mean utility) — the fleet-scale mode where report
	// memory stays flat in migration count. Golden formatting of
	// individual migrations is unavailable with this set.
	DiscardMigrationRecords bool

	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns a 6-vehicle highway scenario aligned with the
// paper's parameter ranges.
func DefaultConfig() Config {
	return Config{
		HighwayLengthM: 8000,
		RSUCount:       8,
		RSURadiusM:     500,
		Vehicles:       6,
		SpeedMinMps:    20,
		SpeedMaxMps:    35,
		TimeStepS:      1,
		DurationS:      600,
		Channel:        channel.DefaultParams(),
		Cost:           5,
		PMax:           50,
		BMaxMHz:        0.5,
		AlphaMin:       5,
		AlphaMax:       20,
		VTMemoryMinMB:  100,
		VTMemoryMaxMB:  300,
		DirtyRateMBps:  20,
		Pricer:         NewOraclePricer(),
		RSUCapacity:    rsu.Resources{CPU: 16, GPU: 8, MemoryGB: 64, StorageGB: 1000},
		SensingPeriodS: 0.5,
		SensingDelayS:  0.05,
		Seed:           1,
	}
}

// EffectiveRSUCount is the number of RSUs the configured world will have:
// Grid.Rows×Grid.Cols for the grid world, Config.RSUCount otherwise.
func (c Config) EffectiveRSUCount() int {
	if c.Mobility == MobilityGrid {
		return c.Grid.Rows * c.Grid.Cols
	}
	return c.RSUCount
}

// resolvedClass is a VehicleClass with every adopted Config default
// filled in — the ranges spawns actually draw from.
type resolvedClass struct {
	speedMin, speedMax float64
	alphaMin, alphaMax float64
	memMin, memMax     float64
	sensingPeriodS     float64
}

// resolve fills a class's zero fields from the top-level Config ranges.
func (vc VehicleClass) resolve(c Config) resolvedClass {
	r := resolvedClass{
		speedMin: c.SpeedMinMps, speedMax: c.SpeedMaxMps,
		alphaMin: c.AlphaMin, alphaMax: c.AlphaMax,
		memMin: c.VTMemoryMinMB, memMax: c.VTMemoryMaxMB,
		sensingPeriodS: c.SensingPeriodS,
	}
	if vc.SpeedMinMps != 0 || vc.SpeedMaxMps != 0 {
		r.speedMin, r.speedMax = vc.SpeedMinMps, vc.SpeedMaxMps
	}
	if vc.AlphaMin != 0 || vc.AlphaMax != 0 {
		r.alphaMin, r.alphaMax = vc.AlphaMin, vc.AlphaMax
	}
	if vc.VTMemoryMinMB != 0 || vc.VTMemoryMaxMB != 0 {
		r.memMin, r.memMax = vc.VTMemoryMinMB, vc.VTMemoryMaxMB
	}
	if vc.SensingPeriodS != 0 {
		r.sensingPeriodS = vc.SensingPeriodS
	}
	return r
}

// Validate reports whether the configuration is usable. Checks are
// written in the !(x > 0) form where it matters so NaNs are rejected
// rather than slipping through a reversed comparison.
func (c Config) Validate() error {
	switch c.Mobility {
	case "", MobilityHighway:
		if !(c.HighwayLengthM > 0) {
			return fmt.Errorf("sim: Config.HighwayLengthM must be positive, got %g", c.HighwayLengthM)
		}
		if c.RSUCount < 1 {
			return fmt.Errorf("sim: Config.RSUCount must be at least 1, got %d", c.RSUCount)
		}
	case MobilityGrid:
		if c.Grid.Rows < 2 || c.Grid.Cols < 2 {
			return fmt.Errorf("sim: Config.Grid needs at least 2 rows and 2 cols, got %dx%d", c.Grid.Rows, c.Grid.Cols)
		}
		if !(c.Grid.SpacingM > 0) || math.IsInf(c.Grid.SpacingM, 0) {
			return fmt.Errorf("sim: Config.Grid.SpacingM must be positive and finite, got %g", c.Grid.SpacingM)
		}
		if c.RSUCount != 0 && c.RSUCount != c.Grid.Rows*c.Grid.Cols {
			return fmt.Errorf("sim: Config.RSUCount %d conflicts with Config.Grid (%dx%d grid has %d intersection RSUs); leave RSUCount 0 to adopt it",
				c.RSUCount, c.Grid.Rows, c.Grid.Cols, c.Grid.Rows*c.Grid.Cols)
		}
	default:
		return fmt.Errorf("sim: Config.Mobility %q unknown (want %q or %q)", c.Mobility, MobilityHighway, MobilityGrid)
	}
	if !(c.RSURadiusM > 0) {
		return fmt.Errorf("sim: Config.RSURadiusM must be positive, got %g", c.RSURadiusM)
	}
	if c.Vehicles < 1 {
		return fmt.Errorf("sim: Config.Vehicles must be at least 1, got %d", c.Vehicles)
	}
	if !(c.SpeedMinMps > 0) || c.SpeedMaxMps < c.SpeedMinMps {
		return fmt.Errorf("sim: Config.SpeedMinMps/SpeedMaxMps range [%g, %g] invalid (need 0 < min <= max)", c.SpeedMinMps, c.SpeedMaxMps)
	}
	if !(c.TimeStepS > 0) {
		return fmt.Errorf("sim: Config.TimeStepS must be positive, got %g", c.TimeStepS)
	}
	if !(c.DurationS > 0) {
		return fmt.Errorf("sim: Config.DurationS must be positive, got %g", c.DurationS)
	}
	if !(c.AlphaMin > 0) || c.AlphaMax < c.AlphaMin {
		return fmt.Errorf("sim: Config.AlphaMin/AlphaMax range [%g, %g] invalid (need 0 < min <= max)", c.AlphaMin, c.AlphaMax)
	}
	if !(c.VTMemoryMinMB > 0) || c.VTMemoryMaxMB < c.VTMemoryMinMB {
		return fmt.Errorf("sim: Config.VTMemoryMinMB/VTMemoryMaxMB range [%g, %g] invalid (need 0 < min <= max)", c.VTMemoryMinMB, c.VTMemoryMaxMB)
	}
	if !(c.PricingFailureRate >= 0) || c.PricingFailureRate >= 1 {
		return fmt.Errorf("sim: Config.PricingFailureRate %g out of [0, 1)", c.PricingFailureRate)
	}
	if c.Pricer == nil {
		return fmt.Errorf("sim: Config.Pricer must not be nil")
	}
	if !(c.Cost > 0) || c.PMax <= c.Cost {
		return fmt.Errorf("sim: Config.Cost/PMax price range [%g, %g] invalid (need 0 < cost < pmax)", c.Cost, c.PMax)
	}
	if err := c.RSUCapacity.Validate(); err != nil {
		return fmt.Errorf("sim: Config.RSUCapacity: %w", err)
	}
	if !(c.SensingPeriodS > 0) {
		return fmt.Errorf("sim: Config.SensingPeriodS must be positive, got %g", c.SensingPeriodS)
	}
	if !(c.SensingDelayS >= 0) {
		return fmt.Errorf("sim: Config.SensingDelayS must not be negative, got %g", c.SensingDelayS)
	}
	for i, cl := range c.Classes {
		if !(cl.Weight > 0) || math.IsInf(cl.Weight, 0) {
			return fmt.Errorf("sim: Config.Classes[%d] (%q) Weight must be positive and finite, got %g", i, cl.Name, cl.Weight)
		}
		r := cl.resolve(c)
		if !(r.speedMin > 0) || r.speedMax < r.speedMin {
			return fmt.Errorf("sim: Config.Classes[%d] (%q) speed range [%g, %g] invalid (need 0 < min <= max)", i, cl.Name, r.speedMin, r.speedMax)
		}
		if !(r.alphaMin > 0) || r.alphaMax < r.alphaMin {
			return fmt.Errorf("sim: Config.Classes[%d] (%q) alpha range [%g, %g] invalid (need 0 < min <= max)", i, cl.Name, r.alphaMin, r.alphaMax)
		}
		if !(r.memMin > 0) || r.memMax < r.memMin {
			return fmt.Errorf("sim: Config.Classes[%d] (%q) VT memory range [%g, %g] invalid (need 0 < min <= max)", i, cl.Name, r.memMin, r.memMax)
		}
		if !(r.sensingPeriodS > 0) || math.IsInf(r.sensingPeriodS, 0) {
			return fmt.Errorf("sim: Config.Classes[%d] (%q) SensingPeriodS must be positive and finite, got %g", i, cl.Name, r.sensingPeriodS)
		}
	}
	if !(c.Churn.ArrivalRatePerS >= 0) || math.IsInf(c.Churn.ArrivalRatePerS, 0) {
		return fmt.Errorf("sim: Config.Churn.ArrivalRatePerS must be finite and non-negative, got %g", c.Churn.ArrivalRatePerS)
	}
	if c.Churn.Enabled() {
		if !(c.Churn.MeanDwellS > 0) || math.IsInf(c.Churn.MeanDwellS, 0) {
			return fmt.Errorf("sim: Config.Churn.MeanDwellS must be positive and finite, got %g", c.Churn.MeanDwellS)
		}
		if c.Churn.MaxVehicles < 0 {
			return fmt.Errorf("sim: Config.Churn.MaxVehicles must not be negative, got %d", c.Churn.MaxVehicles)
		}
	}
	rsus := c.EffectiveRSUCount()
	for i, w := range c.Outages {
		if w.RSU < 0 || w.RSU >= rsus {
			return fmt.Errorf("sim: Config.Outages[%d].RSU %d out of range (world has %d RSUs)", i, w.RSU, rsus)
		}
		if !(w.StartS >= 0) || !(w.EndS > w.StartS) {
			return fmt.Errorf("sim: Config.Outages[%d] window [%g, %g) invalid (need 0 <= start < end)", i, w.StartS, w.EndS)
		}
	}
	if !(c.Demand.PeriodS >= 0) || math.IsInf(c.Demand.PeriodS, 0) {
		return fmt.Errorf("sim: Config.Demand.PeriodS must be finite and non-negative, got %g", c.Demand.PeriodS)
	}
	if c.Demand.Enabled() {
		if !(c.Demand.DayFraction > 0) || !(c.Demand.DayFraction < 1) {
			return fmt.Errorf("sim: Config.Demand.DayFraction %g out of (0, 1)", c.Demand.DayFraction)
		}
		if !(c.Demand.NightSpeedFactor > 0) || math.IsInf(c.Demand.NightSpeedFactor, 0) {
			return fmt.Errorf("sim: Config.Demand.NightSpeedFactor must be positive and finite, got %g", c.Demand.NightSpeedFactor)
		}
		if !(c.Demand.NightSensingFactor > 0) || math.IsInf(c.Demand.NightSensingFactor, 0) {
			return fmt.Errorf("sim: Config.Demand.NightSensingFactor must be positive and finite, got %g", c.Demand.NightSensingFactor)
		}
	}
	return nil
}

// MigrationRecord describes one completed VT migration.
type MigrationRecord struct {
	VehicleID        int
	StartS           float64
	FromRSU, ToRSU   int
	Price            float64
	BandwidthMHz     float64
	AoTM             float64
	DataMovedMB      float64
	DowntimeS        float64
	DurationS        float64
	VMUUtility       float64
	MSPProfit        float64
	PreCopyConverged bool
}

// Report aggregates a simulation run. Every aggregate field is
// maintained streaming (accumulated in completion order as migrations
// finish), so a run with Config.DiscardMigrationRecords set reports the
// same numbers with memory flat in fleet size.
type Report struct {
	// Migrations are all completed migrations in completion order; nil
	// when Config.DiscardMigrationRecords is set.
	Migrations []MigrationRecord
	// Completed counts completed migrations — len(Migrations) when
	// records are kept, and the only completion count when they are
	// discarded.
	Completed int
	// Handovers counts detected serving-RSU changes (excluding first
	// attaches).
	Handovers int
	// PricingRounds counts executed incentive rounds.
	PricingRounds int
	// FailedRounds counts rounds lost to injected failures.
	FailedRounds int
	// Deferred counts migrations postponed by failures or exhausted
	// bandwidth.
	Deferred int
	// OptedOut counts migrations whose VMU declined to buy bandwidth
	// (zero best response at the posted price).
	OptedOut int
	// MSPRevenue is Σ (p − C)·b over all grants.
	MSPRevenue float64
	// MeanAoTM and MaxAoTM summarize migration freshness.
	MeanAoTM, MaxAoTM float64
	// MeanVMUUtility averages follower utilities over migrations.
	MeanVMUUtility float64
	// PlacementFailures counts migrations whose destination edge server
	// had no headroom (the twin stays at the source, served remotely).
	PlacementFailures int
	// Arrivals and Departures count churn events (0 without churn).
	Arrivals, Departures int
	// MeanSensingAoI is the time-average Age of Information of the
	// vehicles' sensing streams (physical-virtual synchronization),
	// averaged over vehicles. Migration downtime loses updates and shows
	// up here.
	MeanSensingAoI float64
	// SimulatedS is the simulated horizon.
	SimulatedS float64
	// PricerName records the MSP strategy.
	PricerName string
}

// completion is a scheduled migration-finished event; st is the
// migrating vehicle, whose in-flight flag finish clears.
type completion struct {
	at     float64
	st     *vehState
	record MigrationRecord
}

// completionHeap is a min-heap on completion time.
type completionHeap []completion

func (h completionHeap) Len() int           { return len(h) }
func (h completionHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h completionHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)        { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// vmuProfile is a vehicle's static game profile.
type vmuProfile struct {
	alpha float64
	vt    migration.VTSpec
}

// pendingMigration is a handover of vehicle st waiting for a pricing
// round.
type pendingMigration struct {
	st             *vehState
	fromRSU, toRSU int
}
