package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"vtmig/internal/scenario"
	"vtmig/internal/sim"
	"vtmig/internal/stackelberg"
)

// simParams sizes the simulator workload.
type simParams struct {
	scenario string // scenario file, relative to the checkout root
	minReps  int    // timed repetitions run even past the time budget
}

var simMetroParams = simParams{scenario: "testdata/scenarios/metro-10k.json", minReps: 3}

// simRep is one repetition of the scenario.
type simRep struct {
	name   string        // the scenario's name
	setup  time.Duration // scenario.Load + Compile + sim.New
	ticks  sample        // each Step
	finish time.Duration
	steps  int
	golden string // the report in the golden-file format
	report sim.Report
}

// simHooks instrument one repetition; the zero value runs it bare.
type simHooks struct {
	tr     *tracer
	shards *int                        // overrides the scenario's region count
	wrap   func(sim.Pricer) sim.Pricer // wraps the scenario's pricer
	step   *int                        // receives the current Step span id
}

func runSimRep(e *env, p simParams, h simHooks) (simRep, error) {
	var rep simRep
	t0 := time.Now()
	cid := h.tr.open("scenario.compile", -1, -1)
	s, err := scenario.Load(filepath.Join(e.root, p.scenario))
	if err != nil {
		return rep, err
	}
	rep.name = s.Name
	// The workload seed re-seeds only the churn stream: the fleet, grid,
	// outages and demand cycle stay as committed, which keeps the work per
	// tick comparable across seeds (re-seeding the whole scenario moves
	// the median tick by a factor of two). Seed 0 is the committed
	// scenario exactly.
	if e.seed != 0 && s.Churn != nil {
		s.Churn.Seed = s.Seed + e.seed
	}
	s.Pricer = sim.PricerSpec{Name: "oracle"}
	if h.shards != nil {
		s.Shards = *h.shards
	}
	cfg, err := s.Compile(sim.PricerBuildOptions{})
	if err != nil {
		return rep, err
	}
	h.tr.close(cid)
	if h.wrap != nil {
		cfg.Pricer = h.wrap(cfg.Pricer)
	}
	nid := h.tr.open("sim.New", -1, -1)
	sm, err := sim.New(cfg)
	if err != nil {
		return rep, err
	}
	h.tr.close(nid)
	rep.setup = time.Since(t0)
	rep.steps = int(math.Round(cfg.DurationS / cfg.TimeStepS))
	rep.ticks = make(sample, rep.steps)
	for i := range rep.ticks {
		id := h.tr.open("sim.Step", -1, i)
		if h.step != nil {
			*h.step = id
		}
		t := time.Now()
		sm.Step()
		rep.ticks[i] = time.Since(t)
		h.tr.close(id)
	}
	t := time.Now()
	fid := h.tr.open("sim.Finish", -1, -1)
	rep.report = sm.Finish()
	h.tr.close(fid)
	rep.finish = time.Since(t)
	rep.golden = sim.FormatGoldenReport(rep.report)
	return rep, nil
}

// timedReps runs repetitions until d has passed (and at least minReps).
func timedReps(e *env, p simParams, d time.Duration, h simHooks) ([]simRep, error) {
	var reps []simRep
	start := time.Now()
	for len(reps) < p.minReps || time.Since(start) < d {
		rep, err := runSimRep(e, p, h)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

func runSim(e *env, p simParams) error {
	r := e.rep
	fmt.Fprintln(r.out, hostLine(e.work))

	// The warm-up repetition fills caches, pins the reference report, and
	// measures utility_ratio: per pricing round, the MSP utility at the
	// posted price over the round's Stackelberg-equilibrium utility. The
	// extra solve per round stays out of every timed repetition.
	var ratios []float64
	ref, err := runSimRep(e, p, simHooks{wrap: func(inner sim.Pricer) sim.Pricer {
		return sim.PricerFunc{Label: inner.Name(), Fn: func(g *stackelberg.Game) float64 {
			price := inner.PriceFor(g)
			if se := g.Solve().MSPUtility; se > 0 {
				ratios = append(ratios, g.Evaluate(price).MSPUtility/se)
			}
			return price
		}}
	}})
	if err != nil {
		return err
	}
	if e.seed == 0 {
		checkGolden(e, r, ref)
	}
	r.set("utility_ratio", mean(ratios), len(ratios))

	sameReport := func(label string, reps []simRep) {
		for i, rep := range reps {
			r.check(rep.golden == ref.golden, "%s repetition %d: report differs from the warm-up repetition's", label, i+1)
		}
	}
	allTicks := func(reps []simRep) (ticks sample) {
		for _, rep := range reps {
			ticks = append(ticks, rep.ticks...)
		}
		return ticks
	}

	if !e.traced {
		reps, err := timedReps(e, p, e.dur, simHooks{})
		if err != nil {
			return err
		}
		sameReport("timed", reps)
		// Every repetition replays the same deterministic scenario, so
		// tick i does the same work each time. Each tick is timed as its
		// median over the repetitions; p50 and the tail are taken over the
		// scenario's ticks, and the throughput over their sum. (Host
		// contention here comes in periods of minutes, so a run's fastest
		// repetitions depend on whether it caught a quiet moment; in
		// recorded runs the median spread about half as much between runs
		// as the fastest time did.)
		var setups, finishes []float64
		runs := make([]sample, len(reps))
		for k, rep := range reps {
			setups = append(setups, rep.setup.Seconds())
			finishes = append(finishes, rep.finish.Seconds())
			runs[k] = rep.ticks
		}
		ticks := byPosition(runs, time.Millisecond)
		sorted := sortedCopy(ticks)
		r.attempted = len(reps) * len(ticks)
		r.set("setup_s", median(setups), len(setups))
		r.set("p50_ms", percentile(sorted, 0.5), len(ticks))
		r.set("tail_ms", tail(sorted), len(ticks))
		r.set("throughput_per_s", ref.report.SimulatedS/(sum(ticks)/1e3+median(finishes)), len(reps))
		r.notef("%d repetitions, median scenario_s %.4f", len(reps), median(repSeconds(reps)))
		return nil
	}

	base, err := timedReps(e, p, e.dur/2, simHooks{})
	if err != nil {
		return err
	}
	sameReport("untraced", base)
	baseTicks := allTicks(base)

	tr := newTracer()
	var (
		stepID int
		vmus   []float64
	)
	traced, err := timedReps(e, p, e.dur/2, simHooks{tr: tr, step: &stepID, wrap: func(inner sim.Pricer) sim.Pricer {
		return sim.PricerFunc{Label: inner.Name(), Fn: func(g *stackelberg.Game) float64 {
			id := tr.open("sim.PriceFor", stepID, -1)
			price := inner.PriceFor(g)
			tr.close(id)
			vmus = append(vmus, float64(g.N()))
			return price
		}}
	}})
	if err != nil {
		return err
	}
	sameReport("traced", traced)
	ticks := allTicks(traced)
	r.attempted = len(baseTicks) + len(ticks)
	r.set("trace.ops", float64(len(ticks)), len(ticks))
	r.set("trace.op_mean_us", ticks.mean(time.Microsecond), len(ticks))
	r.set("trace.op_p99_us", ticks.pct(0.99, time.Microsecond), len(ticks))
	r.set("trace.overhead_ratio", ticks.mean(time.Microsecond)/baseTicks.mean(time.Microsecond), len(ticks))
	compile, created := tr.stats("scenario.compile"), tr.stats("sim.New")
	pricing, steps := tr.stats("sim.PriceFor"), tr.stats("sim.Step")
	r.set("scenario.compile_per_s", compile.perSecond(), compile.n)
	r.set("sim.new_per_s", created.perSecond(), created.n)
	r.set("sim.pricing_per_s", pricing.perSecond(), pricing.n)
	r.set("sim.pricing_share", pricing.busy.Seconds()/steps.busy.Seconds(), steps.n)
	r.set("sim.round_vmus", mean(vmus), len(vmus))

	// One extra repetition each way: the serial vehicle phase against the
	// sharded one (contract rule 7 also demands identical reports).
	serial, sharded := 0, 4
	one, err := runSimRep(e, p, simHooks{shards: &serial})
	if err != nil {
		return err
	}
	four, err := runSimRep(e, p, simHooks{shards: &sharded})
	if err != nil {
		return err
	}
	sameReport("shard", []simRep{one, four})
	r.set("sim.shard_speedup", one.ticks.mean(time.Microsecond)/four.ticks.mean(time.Microsecond), 2*one.steps)
	return writeSpans(e, tr)
}

func repSeconds(reps []simRep) []float64 {
	out := make([]float64, len(reps))
	for i, rep := range reps {
		out[i] = (rep.setup + rep.ticks.total() + rep.finish).Seconds()
	}
	return out
}

// checkGolden compares the seed-0 report with the committed scenario
// golden.
func checkGolden(e *env, r *report, ref simRep) {
	path := filepath.Join(e.root, "internal", "scenario", "testdata", "report_"+ref.name+"_oracle_golden.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		r.check(false, "reading golden report: %v", err)
		return
	}
	if err := sim.DiffGoldenReports(string(want), ref.golden, sim.GoldenTol); err != nil {
		r.check(false, "seed-0 report differs from %s: %v", path, err)
	}
}
