package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"vtmig/internal/aoi"
	"vtmig/internal/aotm"
	"vtmig/internal/channel"
	"vtmig/internal/mathx"
	"vtmig/internal/migration"
	"vtmig/internal/mobility"
	"vtmig/internal/rsu"
	"vtmig/internal/stackelberg"
	"vtmig/internal/trace"
)

// vehState is one active vehicle's full simulation state: the kinematic
// body, the VMU game profile, the sensing-AoI stream, under churn the
// lifetime window, and the per-vehicle bookkeeping of handover
// collection and pricing — serving RSU, in-flight flag, pending-queue
// slot, round stamp — kept here rather than in maps keyed by vehicle id,
// which fleet-scale ticks would otherwise probe tens of thousands of
// times.
type vehState struct {
	v    *mobility.Vehicle
	prof vmuProfile

	// sensing is the physical-virtual synchronization stream; pausedFrom/
	// pausedUntil mark the stop-and-copy downtime window during which
	// updates are lost.
	sensing        *aoi.Process
	nextUpdate     float64
	sensingPeriodS float64
	pausedFrom     float64
	pausedUntil    float64

	// arrivedAt and departAt bound the vehicle's lifetime; departAt is
	// +Inf when churn is off.
	arrivedAt float64
	departAt  float64

	// stagedRSU is the serving RSU computed during the per-tick vehicle
	// phase and consumed by the handover collection that follows it.
	stagedRSU int

	// serving is the RSU handover collection last observed serving the
	// vehicle; attached is false until the first observation, which
	// places the twin rather than counting a handover.
	serving  int
	attached bool

	// inFlight marks a migration in progress, from launch to completion.
	// The vehicle phase only reads it; the launch and completion paths
	// write it.
	inFlight bool

	// pendingAt is the vehicle's slot in Simulator.pending, valid only
	// while pendingPass equals the simulator's handoverPass: each
	// handover pass restamps the queued vehicles, so stale slots need no
	// clearing.
	pendingAt   int
	pendingPass int

	// roundStamp is the last pricing round whose game the vehicle joined
	// (the duplicate-VMU guard); departed marks a vehicle retired this
	// tick, whose queued migration processChurn drops.
	roundStamp int
	departed   bool
}

// Simulator owns the state of one run. Construct with New, then call Run.
type Simulator struct {
	cfg      Config
	world    mobility.World
	vehicles []*vehState // active fleet in arrival order
	alloc    *channel.OFDMAAllocator
	cluster  *rsu.Cluster
	tracer   *trace.Tracer
	rng      *rand.Rand

	// churnRng is the dedicated counted arrival/departure stream; nil
	// unless churn is enabled, so legacy runs draw nothing from it.
	churnRng  *rand.Rand
	nextVehID int

	// classes are the resolved heterogeneous populations; classAcc holds
	// cumulative weights for the spawn draw. Both empty without classes.
	classes        []resolvedClass
	classAcc       []float64
	classWeightSum float64
	baseClass      resolvedClass

	// down marks RSUs currently in outage (nil when no outages are
	// scheduled) and goes to every serving-RSU lookup as is: an all-false
	// mask selects exactly like a nil one, and the grid's O(1) lookup
	// holds under any mask for every vehicle whose nearest RSU is live.
	// outageOn tracks per-window activity for trace edges.
	down     []bool
	outageOn []bool

	// departedAoISum and departedAoICount accumulate the lifetime-average
	// sensing AoI of departed vehicles streaming, in departure order —
	// the same accumulation order as the former slice-then-sum form, so
	// churn-heavy fleets cost no per-departure memory.
	departedAoISum   float64
	departedAoICount int

	now         float64
	pending     []pendingMigration
	completions completionHeap
	report      Report

	// handoverPass and pricingRound stamp the vehicles' pendingPass and
	// roundStamp fields: one increment per handover collection and per
	// built round game.
	handoverPass int
	pricingRound int

	// aotmSum, aotmMax, and utilSum are the streaming migration
	// aggregates, accumulated in completion order exactly like
	// mathx.Mean/MinMax over the record slice would.
	aotmSum, aotmMax, utilSum float64

	// demandScratch backs the per-round follower best responses; it is
	// resliced to each round's batch, reused across rounds, and at least
	// doubles when a round outgrows it, so a fleet whose rounds creep
	// upward regrows it a few times rather than once per new maximum
	// (vmuScratch and evalScratch grow the same way). evalScratch
	// carries the SoA follower mirror of the batched best-response
	// kernels, and roundGame/vmuScratch back the reused per-round game so
	// steady-state rounds allocate nothing that scales with fleet size.
	demandScratch []float64
	evalScratch   stackelberg.EvalScratch
	roundGame     stackelberg.Game
	vmuScratch    []stackelberg.VMU
}

// churnSeedFrom derives the default churn-stream seed from the main seed
// with a splitmix64 scramble — an additive offset would collide with
// nearby user-chosen seeds.
func churnSeedFrom(seed int64) int64 {
	return mathx.SplitMix64(seed, 0)
}

// New builds a simulator from the configuration.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var world mobility.World
	switch cfg.Mobility {
	case "", MobilityHighway:
		hw, err := mobility.NewHighway(cfg.HighwayLengthM, cfg.RSUCount, cfg.RSURadiusM)
		if err != nil {
			return nil, err
		}
		world = hw
	case MobilityGrid:
		turnSeed := cfg.Grid.TurnSeed
		if turnSeed == 0 {
			turnSeed = cfg.Seed
		}
		g, err := mobility.NewGrid(cfg.Grid.Rows, cfg.Grid.Cols, cfg.Grid.SpacingM, cfg.RSURadiusM, turnSeed)
		if err != nil {
			return nil, err
		}
		world = g
	}
	s := &Simulator{
		cfg:       cfg,
		world:     world,
		alloc:     channel.NewOFDMAAllocator(cfg.BMaxMHz),
		tracer:    trace.NewTracer(cfg.TraceWriter),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		baseClass: VehicleClass{}.resolve(cfg),
	}
	if cfg.Churn.Enabled() {
		seed := cfg.Churn.Seed
		if seed == 0 {
			seed = churnSeedFrom(cfg.Seed)
		}
		s.churnRng = rand.New(mathx.NewCountingSource(seed))
	}
	for _, cl := range cfg.Classes {
		s.classes = append(s.classes, cl.resolve(cfg))
		s.classWeightSum += cl.Weight
		s.classAcc = append(s.classAcc, s.classWeightSum)
	}
	if len(cfg.Outages) > 0 {
		s.down = make([]bool, world.RSUCount())
		s.outageOn = make([]bool, len(cfg.Outages))
	}
	servers := make([]*rsu.Server, world.RSUCount())
	for i := range servers {
		srv, err := rsu.NewServer(i, cfg.RSUCapacity)
		if err != nil {
			return nil, err
		}
		servers[i] = srv
	}
	cluster, err := rsu.NewCluster(servers, rsu.PlaceLeastLoaded)
	if err != nil {
		return nil, err
	}
	s.cluster = cluster

	for i := 0; i < cfg.Vehicles; i++ {
		s.spawnVehicle(s.rng)
	}
	s.report.PricerName = cfg.Pricer.Name()
	return s, nil
}

// pickClass selects the spawn's population: no draw at all for a
// homogeneous fleet, one weighted draw otherwise.
func (s *Simulator) pickClass(rng *rand.Rand) resolvedClass {
	if len(s.classes) == 0 {
		return s.baseClass
	}
	u := rng.Float64() * s.classWeightSum
	for i, acc := range s.classAcc {
		if u < acc {
			return s.classes[i]
		}
	}
	return s.classes[len(s.classes)-1]
}

// spawnVehicle creates one vehicle drawing its class, spawn state, and
// profile from rng — the main stream for the initial fleet, the churn
// stream for arrivals. The draw order (position, speed, memory, alpha)
// is part of the determinism contract: reordering it would shift every
// later draw and break the committed goldens.
func (s *Simulator) spawnVehicle(rng *rand.Rand) *vehState {
	cls := s.pickClass(rng)
	v := &mobility.Vehicle{ID: s.nextVehID}
	s.nextVehID++
	s.world.Place(v, rng)
	v.SpeedMps = cls.speedMin + rng.Float64()*(cls.speedMax-cls.speedMin)
	memory := cls.memMin + rng.Float64()*(cls.memMax-cls.memMin)
	st := &vehState{
		v: v,
		prof: vmuProfile{
			alpha: cls.alphaMin + rng.Float64()*(cls.alphaMax-cls.alphaMin),
			vt: migration.VTSpec{
				ConfigMB:      0.05 * memory,
				MemoryMB:      0.85 * memory,
				StateMB:       0.10 * memory,
				DirtyRateMBps: s.cfg.DirtyRateMBps,
			},
		},
		// Bounded: a vehicle's sensing history compacts past 8
		// breakpoints, so its buffer stops growing after the first few
		// deliveries and fleet memory stays flat in simulated time.
		// Bit-identical to the unbounded process (at any bound) because
		// the sim only queries AverageAge at the monotone sim clock.
		sensing:        aoi.NewBoundedProcess(s.now, 8),
		nextUpdate:     s.now + cls.sensingPeriodS,
		sensingPeriodS: cls.sensingPeriodS,
		arrivedAt:      s.now,
		departAt:       math.Inf(1),
	}
	if s.churnRng != nil {
		st.departAt = s.now + s.churnRng.ExpFloat64()*s.cfg.Churn.MeanDwellS
	}
	s.vehicles = append(s.vehicles, st)
	return st
}

// Run executes the full configured duration and returns the aggregated
// report. It is exactly RunFor(DurationS) followed by Finish — callers
// that need to pause mid-run (e.g. to snapshot and swap an online
// pricer) drive those pieces themselves.
func (s *Simulator) Run() Report {
	s.RunFor(s.cfg.DurationS)
	return s.Finish()
}

// Step advances the simulation by one time step: completions drain,
// outages toggle, churn arrives and departs, vehicles move, sensing
// updates deliver, handovers queue, and at most one pricing round runs.
func (s *Simulator) Step() {
	s.now += s.cfg.TimeStepS
	s.drainCompletions()
	s.applyOutages()
	s.processChurn()
	s.stepVehicles()
	s.collectHandovers()
	s.runPricingRound()
}

// runForEpsilon is the relative tolerance within which a span quotient is
// treated as a whole number of steps. Spans that are exact multiples of
// TimeStepS in real arithmetic can land just below the integer in floats
// (1800/0.3 = 5999.999…), and plain truncation would silently drop the
// final step.
const runForEpsilon = 1e-9

// RunFor advances the simulation by the given span of simulated time,
// rounded down to whole steps — where "whole" tolerates float rounding:
// a quotient within a relative 1e-9 of the next integer counts as
// reaching it. Splitting a run into several RunFor calls whose spans are
// individually whole multiples of TimeStepS is bit-identical to one call
// over the total, for fractional step sizes too.
func (s *Simulator) RunFor(seconds float64) {
	q := seconds / s.cfg.TimeStepS
	steps := int(q)
	if next := float64(steps + 1); q >= next-runForEpsilon*next {
		steps++
	}
	for i := 0; i < steps; i++ {
		s.Step()
	}
}

// Finish flushes migrations still in flight at the horizon, finalizes
// the aggregate statistics, and returns the report. Call it once, after
// the last Step/RunFor.
func (s *Simulator) Finish() Report {
	for s.completions.Len() > 0 {
		s.finish(heap.Pop(&s.completions).(completion))
	}
	s.finalizeReport()
	return s.report
}

// Now returns the current simulated time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// SetPricer swaps the pricing strategy between steps — the hook behind
// simulation-level resume: snapshot an online pricer at an
// optimization-phase boundary, rebuild it from the checkpoint
// (NewOnlinePricerFromCheckpoint), swap it in, and the remaining steps
// are bit-identical to never having swapped (determinism contract
// rule 6). The report keeps counting across the swap; only the pricer
// name is refreshed.
func (s *Simulator) SetPricer(p Pricer) error {
	if p == nil {
		return fmt.Errorf("sim: cannot swap in a nil pricer")
	}
	s.cfg.Pricer = p
	s.report.PricerName = p.Name()
	return nil
}

// drainCompletions completes every migration whose finish time has passed.
func (s *Simulator) drainCompletions() {
	for s.completions.Len() > 0 && s.completions[0].at <= s.now {
		s.finish(heap.Pop(&s.completions).(completion))
	}
}

// finish releases the bandwidth grant, moves the twin's edge placement,
// and records the migration.
func (s *Simulator) finish(c completion) {
	if err := s.alloc.Release(c.record.VehicleID); err != nil {
		// A release failure indicates corrupted accounting; the simulator
		// cannot continue meaningfully.
		panic(fmt.Sprintf("sim: releasing grant for vehicle %d: %v", c.record.VehicleID, err))
	}
	c.st.inFlight = false
	if s.cluster.Locate(c.record.VehicleID) != c.record.ToRSU {
		if !s.cluster.TryMigrateTwin(c.record.VehicleID, c.record.ToRSU) {
			// Destination edge server is full: the twin stays at the
			// source and keeps being served remotely.
			s.report.PlacementFailures++
		}
	}
	s.emit(trace.Event{
		TimeS: s.now, Kind: trace.KindMigrationComplete, Vehicle: c.record.VehicleID,
		FromRSU: c.record.FromRSU, ToRSU: c.record.ToRSU, Bandwidth: c.record.BandwidthMHz, AoTM: c.record.AoTM,
	})
	// Streaming aggregates, accumulated in completion order with exactly
	// the arithmetic of mathx.Mean/MinMax over the record slice: sums
	// start at zero and add per-record terms in order, the max seeds from
	// the first record and updates on strict >.
	if s.report.Completed == 0 || c.record.AoTM > s.aotmMax {
		s.aotmMax = c.record.AoTM
	}
	s.aotmSum += c.record.AoTM
	s.utilSum += c.record.VMUUtility
	s.report.Completed++
	if !s.cfg.DiscardMigrationRecords {
		s.report.Migrations = append(s.report.Migrations, c.record)
	}
}

// applyOutages recomputes which RSUs are down and traces window edges.
func (s *Simulator) applyOutages() {
	if len(s.cfg.Outages) == 0 {
		return
	}
	for i := range s.down {
		s.down[i] = false
	}
	for wi, w := range s.cfg.Outages {
		active := s.now >= w.StartS && s.now < w.EndS
		if active {
			s.down[w.RSU] = true
		}
		if active != s.outageOn[wi] {
			s.outageOn[wi] = active
			kind := trace.KindOutageStart
			if !active {
				kind = trace.KindOutageEnd
			}
			s.emit(trace.Event{TimeS: s.now, Kind: kind, Vehicle: -1, FromRSU: w.RSU, ToRSU: w.RSU})
		}
	}
}

// night reports whether the demand cycle is in its night phase.
func (s *Simulator) night() bool {
	d := s.cfg.Demand
	if !d.Enabled() {
		return false
	}
	return math.Mod(s.now, d.PeriodS) >= d.DayFraction*d.PeriodS
}

// poissonDraw samples Poisson(lambda) with Knuth's product method. The
// rate is clamped to 100 expected events per draw: beyond that the
// product underflows, and per-step arrival bursts of that size are
// outside the simulator's regime anyway.
func poissonDraw(rng *rand.Rand, lambda float64) int {
	if !(lambda > 0) {
		return 0
	}
	if lambda > 100 {
		lambda = 100
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// processChurn retires vehicles whose dwell expired and spawns Poisson
// arrivals, all from the dedicated churn stream. Departures are deferred
// while the vehicle's migration is in flight so accounting stays whole.
// The departed vehicles' queued migrations leave pending in one
// order-preserving pass after the retirements, which leaves the same
// queue as filtering it once per departure would.
func (s *Simulator) processChurn() {
	if s.churnRng == nil {
		return
	}
	kept := s.vehicles[:0]
	anyDeparted := false
	for _, st := range s.vehicles {
		if st.departAt <= s.now && !st.inFlight {
			s.depart(st)
			anyDeparted = true
			continue
		}
		kept = append(kept, st)
	}
	s.vehicles = kept
	if anyDeparted {
		pending := s.pending[:0]
		for _, pm := range s.pending {
			if !pm.st.departed {
				pending = append(pending, pm)
			}
		}
		s.pending = pending
	}
	arrivals := poissonDraw(s.churnRng, s.cfg.Churn.ArrivalRatePerS*s.cfg.TimeStepS)
	for i := 0; i < arrivals; i++ {
		if s.cfg.Churn.MaxVehicles > 0 && len(s.vehicles) >= s.cfg.Churn.MaxVehicles {
			break
		}
		st := s.spawnVehicle(s.churnRng)
		s.report.Arrivals++
		s.emit(trace.Event{TimeS: s.now, Kind: trace.KindArrival, Vehicle: st.v.ID})
	}
}

// depart removes one vehicle: its twin is evicted, it is marked departed
// (processChurn then drops its queued migration), and its sensing
// stream's lifetime average is banked for the report. Its serving state
// lives on the vehState and leaves with it.
func (s *Simulator) depart(st *vehState) {
	id := st.v.ID
	if s.cluster.Locate(id) >= 0 {
		if err := s.cluster.Evict(id); err != nil {
			panic(fmt.Sprintf("sim: evicting twin of departing vehicle %d: %v", id, err))
		}
	}
	st.departed = true
	if s.now > st.arrivedAt {
		s.departedAoISum += st.sensing.AverageAge(s.now)
		s.departedAoICount++
	}
	s.report.Departures++
	s.emit(trace.Event{TimeS: s.now, Kind: trace.KindDeparture, Vehicle: id})
}

// moveDt is the kinematics step span; the night phase of a demand cycle
// scales speeds down (less migration demand).
func (s *Simulator) moveDt(night bool) float64 {
	dt := s.cfg.TimeStepS
	if night {
		dt *= s.cfg.Demand.NightSpeedFactor
	}
	return dt
}

// stepVehicles is the vehicle phase: every vehicle in fleet order.
func (s *Simulator) stepVehicles() {
	night := s.night()
	dt := s.moveDt(night)
	for _, st := range s.vehicles {
		s.stepVehicle(st, dt, night)
	}
}

// stepVehicle advances one vehicle's per-tick independent state: its
// kinematics, its sensing stream, and its staged serving RSU. Everything
// here reads shared state (down, the demand phase) and the vehicle's
// in-flight flag without writing them, and draws randomness only from
// the vehicle's private turn stream.
func (s *Simulator) stepVehicle(st *vehState, moveDt float64, night bool) {
	s.world.Advance(st.v, moveDt)
	for st.nextUpdate <= s.now {
		gen := st.nextUpdate
		period := st.sensingPeriodS
		if night {
			period *= s.cfg.Demand.NightSensingFactor
		}
		st.nextUpdate += period
		if gen >= st.pausedFrom && gen < st.pausedUntil && st.pausedUntil > 0 {
			continue // twin paused: update lost
		}
		if err := st.sensing.Deliver(gen, gen+s.cfg.SensingDelayS); err != nil {
			panic(fmt.Sprintf("sim: sensing delivery for vehicle %d: %v", st.v.ID, err))
		}
	}
	if !st.inFlight {
		// Stage the serving RSU for the handover collection. The lookup
		// is pure, so computing it here instead of inside
		// collectHandovers changes nothing numerically.
		st.stagedRSU, _ = s.world.ServingRSU(st.v, s.down)
	}
}

// collectHandovers queues a pending migration for every handover of a
// vehicle that is not already migrating. It walks the fleet in arrival
// order, consuming the serving RSUs staged by the vehicle phase.
//
// A vehicle can hand over again while an earlier migration of its sits
// deferred (bandwidth exhausted or a failed round) — common once fleets
// outgrow the pool. The queued migration is then retargeted to the new
// destination instead of queueing a second entry: the twin is still at
// the original source, and a duplicate would put the same VMU into one
// Stackelberg round twice (which the game rejects). The pass first
// stamps every queued vehicle with its slot in pending, so finding a
// vehicle's entry is a field read.
func (s *Simulator) collectHandovers() {
	s.handoverPass++
	for i, pm := range s.pending {
		pm.st.pendingAt, pm.st.pendingPass = i, s.handoverPass
	}
	for _, st := range s.vehicles {
		if st.inFlight {
			continue // twin already moving; re-evaluate after completion
		}
		to := st.stagedRSU
		if st.attached && st.serving == to {
			continue
		}
		from := -1
		if st.attached {
			from = st.serving
		}
		st.serving, st.attached = to, true
		id := st.v.ID
		if from < 0 {
			// First attach: deploy the twin on the serving RSU's edge
			// server, falling back to the least-loaded server when full.
			req := s.twinRequirement(st)
			// Try variants rather than the error-returning ones: outage
			// recovery at fleet scale re-attaches thousands of vehicles
			// per tick, and the rejection errors dominated allocations.
			if !s.cluster.TryPlaceOn(id, to, req) {
				if _, ok := s.cluster.TryPlace(id, req); !ok {
					s.report.PlacementFailures++
				}
			}
			continue
		}
		s.report.Handovers++
		s.emit(trace.Event{TimeS: s.now, Kind: trace.KindHandover, Vehicle: id, FromRSU: from, ToRSU: to})
		if st.pendingPass == s.handoverPass {
			s.pending[st.pendingAt].toRSU = to
			continue
		}
		st.pendingAt, st.pendingPass = len(s.pending), s.handoverPass
		s.pending = append(s.pending, pendingMigration{st: st, fromRSU: from, toRSU: to})
	}
}

// runPricingRound runs one Stackelberg round over all pending migrations.
func (s *Simulator) runPricingRound() {
	if len(s.pending) == 0 {
		return
	}
	if s.cfg.PricingFailureRate > 0 && s.rng.Float64() < s.cfg.PricingFailureRate {
		// Control-plane failure: everything retries next step.
		s.report.FailedRounds++
		s.report.Deferred += len(s.pending)
		s.emit(trace.Event{TimeS: s.now, Kind: trace.KindPricingFailure, Vehicle: -1, Participants: len(s.pending)})
		return
	}

	batch := s.pending
	s.pending = s.pending[:0]

	game := s.buildGame(batch)
	price := mathx.Clamp(s.cfg.Pricer.PriceFor(game), game.Cost, game.PMax)
	if math.IsNaN(price) {
		// Clamp passes NaN through, and a NaN price would flow into NaN
		// demands that corrupt the allocator's accounting unchecked
		// (NaN passes every <= comparison on the allocation path).
		panic(fmt.Sprintf("sim: t=%.3fs: pricer %q returned NaN for a %d-VMU round",
			s.now, s.cfg.Pricer.Name(), game.N()))
	}
	s.report.PricingRounds++
	s.emit(trace.Event{TimeS: s.now, Kind: trace.KindPricingRound, Vehicle: -1, Price: price, Participants: len(batch)})

	// Followers best-respond, batched through the mat vector kernels over
	// the whole round instead of a per-vehicle loop (bit-identical to the
	// loop form); the remaining pool bounds this round.
	if cap(s.demandScratch) < game.N() {
		s.demandScratch = make([]float64, max(game.N(), 2*cap(s.demandScratch)))
	}
	demands := game.BestResponsesBatchInto(&s.evalScratch, s.demandScratch[:game.N()], price)
	avail := s.alloc.Available()
	if math.IsNaN(avail) || avail < 0 {
		panic(fmt.Sprintf("sim: t=%.3fs: bandwidth pool accounting corrupt: %g MHz available of %g",
			s.now, avail, s.alloc.Capacity()))
	}
	scale := channel.ScaleDemandsInPlace(demands, math.Max(avail, 1e-12))

	for i, pm := range batch {
		bw := demands[i]
		if math.IsNaN(bw) || math.IsInf(bw, 0) {
			// A garbage scale result must not reach the allocator: treat it
			// like the other corrupted-accounting paths instead of letting
			// Allocate absorb a NaN into the shared pool.
			panic(fmt.Sprintf("sim: t=%.3fs: scaling %d demands into %g MHz produced %g for vehicle %d (scale %g)",
				s.now, len(batch), avail, bw, pm.st.v.ID, scale))
		}
		if bw <= 0 {
			s.report.OptedOut++
			continue
		}
		if !s.alloc.TryAllocate(pm.st.v.ID, bw) {
			// Pool exhausted by earlier grants in this batch: retry later.
			// (TryAllocate rather than Allocate: at fleet scale thousands
			// of grants defer per tick, and the rejection errors were the
			// round's dominant allocation.)
			s.pending = append(s.pending, pm)
			s.report.Deferred++
			s.emit(trace.Event{TimeS: s.now, Kind: trace.KindDeferred, Vehicle: pm.st.v.ID})
			continue
		}
		s.launchMigration(pm, game, i, price, bw)
	}
}

// buildGame assembles the round's Stackelberg game into the simulator's
// reused game value — no per-round VMU slice or validation map, so round
// cost is flat in fleet size. The channel distance is the mean
// source–destination RSU distance of the batch.
//
// The full NewGame validation is replaced by the two checks that can
// actually fail here: per-VMU α and D are positive by construction (the
// config ranges are validated at New), and Cost/PMax were checked there
// too, leaving the channel parameters and the duplicate-id guard —
// enforced with a per-round stamp on each vehicle so the panic behavior
// matches the former NewGame path exactly. No pricer retains the *Game
// past its PriceFor call (they evaluate or solve it within the round), so
// handing every round the same address is safe.
func (s *Simulator) buildGame(batch []pendingMigration) *stackelberg.Game {
	ch := s.cfg.Channel
	var dist float64
	for _, pm := range batch {
		dist += s.world.RSUDistance(pm.fromRSU, pm.toRSU)
	}
	if d := dist / float64(len(batch)); d > 0 {
		ch.DistanceM = d
	}
	if err := ch.Validate(); err != nil {
		panic(fmt.Sprintf("sim: building round game: %v", err))
	}
	if cap(s.vmuScratch) < len(batch) {
		s.vmuScratch = make([]stackelberg.VMU, max(len(batch), 2*cap(s.vmuScratch)))
	}
	s.pricingRound++
	vmus := s.vmuScratch[:len(batch)]
	for i, pm := range batch {
		st := pm.st
		if st.roundStamp == s.pricingRound {
			panic(fmt.Sprintf("sim: building round game: stackelberg: duplicate VMU id %d", st.v.ID))
		}
		st.roundStamp = s.pricingRound
		vmus[i] = stackelberg.VMU{
			ID:       st.v.ID,
			Alpha:    st.prof.alpha,
			DataSize: aotm.FromMB(st.prof.vt.BaseSizeMB()),
		}
	}
	s.roundGame = stackelberg.Game{
		VMUs:    vmus,
		Channel: ch,
		Cost:    s.cfg.Cost,
		PMax:    s.cfg.PMax,
		// The round's capacity is what is left in the shared pool.
		BMax: s.alloc.Available(),
	}
	return &s.roundGame
}

// launchMigration runs the pre-copy model and schedules completion.
func (s *Simulator) launchMigration(pm pendingMigration, game *stackelberg.Game, idx int, price, bw float64) {
	st := pm.st
	id := st.v.ID
	prof := st.prof
	// Rate: γ = b·e is in model data units (100 MB) per second.
	rateMBps := game.Channel.Rate(bw) * aotm.DataUnit100MB
	res, err := migration.Simulate(prof.vt, rateMBps, migration.DefaultConfig())
	if err != nil {
		panic(fmt.Sprintf("sim: migrating vehicle %d: %v", id, err))
	}
	age := aotm.AoTMForBandwidth(aotm.FromMB(prof.vt.BaseSizeMB()), bw, game.Channel)
	rec := MigrationRecord{
		VehicleID:        id,
		StartS:           s.now,
		FromRSU:          pm.fromRSU,
		ToRSU:            pm.toRSU,
		Price:            price,
		BandwidthMHz:     bw,
		AoTM:             age,
		DataMovedMB:      res.TotalDataMB,
		DowntimeS:        res.DowntimeS,
		DurationS:        res.TotalTimeS,
		VMUUtility:       game.VMUUtility(idx, bw, price),
		MSPProfit:        (price - game.Cost) * bw,
		PreCopyConverged: res.Converged,
	}
	st.inFlight = true
	s.emit(trace.Event{
		TimeS: s.now, Kind: trace.KindMigrationStart, Vehicle: id,
		FromRSU: pm.fromRSU, ToRSU: pm.toRSU, Price: price, Bandwidth: bw, AoTM: age,
	})
	// Sensing updates are lost while the twin is paused (stop-and-copy).
	st.pausedFrom = s.now + res.TotalTimeS - res.DowntimeS
	st.pausedUntil = s.now + res.TotalTimeS
	heap.Push(&s.completions, completion{at: s.now + res.TotalTimeS, st: st, record: rec})
	s.report.MSPRevenue += rec.MSPProfit
}

// twinRequirement derives a twin's edge-resource footprint from its
// memory size: bigger twins need proportionally more of everything.
func (s *Simulator) twinRequirement(st *vehState) rsu.Resources {
	memGB := st.prof.vt.BaseSizeMB() / 1024
	return rsu.Resources{
		CPU:       1 + memGB,
		GPU:       0.5,
		MemoryGB:  2 * memGB,
		StorageGB: 4 * memGB,
	}
}

// finalizeReport computes the aggregate statistics. The sensing-AoI mean
// covers every vehicle that lived a positive span: departed vehicles
// contribute their banked lifetime averages, active ones their average up
// to the horizon.
func (s *Simulator) finalizeReport() {
	s.report.SimulatedS = s.now
	sumAoI := s.departedAoISum
	included := s.departedAoICount
	for _, st := range s.vehicles {
		if s.now > st.arrivedAt {
			sumAoI += st.sensing.AverageAge(s.now)
			included++
		}
	}
	if included > 0 {
		s.report.MeanSensingAoI = sumAoI / float64(included)
	}
	if s.report.Completed == 0 {
		return
	}
	// The streaming sums were accumulated in completion order with
	// mathx.Mean/MinMax's exact arithmetic, so these divisions reproduce
	// the former slice-based aggregation bit for bit.
	s.report.MeanAoTM = s.aotmSum / float64(s.report.Completed)
	s.report.MaxAoTM = s.aotmMax
	s.report.MeanVMUUtility = s.utilSum / float64(s.report.Completed)
}

// emit writes a trace event, disabling tracing on a broken sink.
func (s *Simulator) emit(e trace.Event) {
	if err := s.tracer.Emit(e); err != nil {
		s.tracer = nil
	}
}
