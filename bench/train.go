package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"vtmig/internal/experiments"
	"vtmig/internal/pomdp"
	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// trainParams sizes the training workload.
type trainParams struct {
	cfg       experiments.DRLConfig
	minReps   int
	setupReps int // constructions timed for setup_s
}

var trainPaperParams = trainParams{cfg: experiments.DefaultDRLConfig(), minReps: 3, setupReps: 51}

// trainRep is one repetition of experiments.TrainAgent's computation,
// composed from its public parts (pomdp.NewGameEnv, rl.NewPPO,
// rl.NewTrainer, experiments.EvaluateAgent) so that episodes can be timed
// and, in the traced pass, the environment wrapped. Restarts run in
// parallel, one goroutine each, like TrainAgent's worker pool.
type trainRep struct {
	wall     time.Duration // the parallel training section
	busy     time.Duration // summed per-restart training time
	episodes sample        // per-episode wall time, all restarts
	// price and utility are the winning restart's EvalPrice and
	// EvalOutcome.MSPUtility, chosen as TrainAgent chooses.
	price, utility float64
}

// restart is one restart's state.
type restart struct {
	env     *pomdp.GameEnv
	agent   *rl.PPO
	trainer *rl.Trainer
	price   float64
	utility float64
	busy    time.Duration
	eps     sample
}

// buildRestarts builds every restart's environment, agent and trainer
// exactly as TrainAgent does; with a tracer, the trainers step traced
// environments.
func buildRestarts(game *stackelberg.Game, cfg experiments.DRLConfig, tr *tracer, opBase int) ([]*restart, error) {
	rs := make([]*restart, max(cfg.Restarts, 1))
	for i := range rs {
		seed := cfg.Seed + int64(i)
		env, err := pomdp.NewGameEnv(pomdp.Config{Game: game, HistoryLen: cfg.HistoryLen, Rounds: cfg.Rounds, Reward: cfg.Reward, Seed: seed})
		if err != nil {
			return nil, err
		}
		ppo := cfg.PPO
		ppo.Seed = seed
		lo, hi := env.ActionBounds()
		agent := rl.NewPPO(env.ObsDim(), env.ActDim(), lo, hi, ppo)
		var trainEnv rl.Env = env
		if tr != nil {
			trainEnv = &tracedEnv{GameEnv: env, tr: tr, updateEvery: cfg.UpdateEvery, op: opBase + i*cfg.Episodes}
		}
		trainer := rl.NewTrainer(trainEnv, agent, rl.TrainerConfig{
			Episodes:         cfg.Episodes,
			RoundsPerEpisode: cfg.Rounds,
			UpdateEvery:      cfg.UpdateEvery,
			CollectWorkers:   cfg.CollectWorkers,
		})
		rs[i] = &restart{env: env, agent: agent, trainer: trainer}
	}
	return rs, nil
}

func runTrainRep(game *stackelberg.Game, cfg experiments.DRLConfig, tr *tracer, opBase int) (trainRep, error) {
	var rep trainRep
	rs, err := buildRestarts(game, cfg, tr, opBase)
	if err != nil {
		return rep, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, x := range rs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			last := t
			x.trainer.OnEpisode = func(es rl.EpisodeStats) bool {
				now := time.Now()
				x.eps = append(x.eps, now.Sub(last))
				tr.add("rl.episode", -1, opBase+i*cfg.Episodes+es.Episode, last, now)
				last = now
				return true
			}
			x.trainer.Run()
			x.busy = time.Since(t)
			x.price = experiments.EvaluateAgent(x.env, x.agent, 20)
			x.utility = game.Evaluate(x.price).MSPUtility
		}()
	}
	wg.Wait()
	rep.wall = time.Since(start)
	for i, x := range rs {
		rep.busy += x.busy
		rep.episodes = append(rep.episodes, x.eps...)
		if i == 0 || x.utility > rep.utility {
			rep.price, rep.utility = x.price, x.utility
		}
	}
	return rep, nil
}

// tracedEnv times each pomdp.GameEnv call and attributes the gaps between
// calls to the learner: a gap that straddles an optimization phase
// (after every UpdateEvery-th step, and between an episode's last step
// and the next Reset) is the PPO update, any other gap is the policy
// forward pass and sampling.
type tracedEnv struct {
	*pomdp.GameEnv
	tr          *tracer
	updateEvery int
	op          int // op id of the current episode
	steps       int // steps taken in the current episode
	lastEnd     time.Time
}

func (w *tracedEnv) Reset() []float64 {
	t0 := time.Now()
	if !w.lastEnd.IsZero() {
		w.tr.add("rl.update", -1, w.op, w.lastEnd, t0)
		w.op++
	}
	obs := w.GameEnv.Reset()
	w.lastEnd = time.Now()
	w.tr.add("pomdp.Reset", -1, w.op, t0, w.lastEnd)
	w.steps = 0
	return obs
}

func (w *tracedEnv) Step(action []float64) ([]float64, float64, bool) {
	t0 := time.Now()
	gap := "rl.policy"
	if w.steps > 0 && w.steps%w.updateEvery == 0 {
		gap = "rl.update"
	}
	w.tr.add(gap, -1, w.op, w.lastEnd, t0)
	obs, reward, done := w.GameEnv.Step(action)
	w.lastEnd = time.Now()
	w.tr.add("pomdp.Step", -1, w.op, t0, w.lastEnd)
	w.steps++
	return obs, reward, done
}

// trainReps runs repetitions until d has passed (and at least minReps).
func trainReps(p trainParams, game *stackelberg.Game, d time.Duration, tr *tracer) ([]trainRep, error) {
	var reps []trainRep
	start := time.Now()
	for len(reps) < p.minReps || time.Since(start) < d {
		rep, err := runTrainRep(game, p.cfg, tr, len(reps)*max(p.cfg.Restarts, 1)*p.cfg.Episodes)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

func runTrain(e *env, p trainParams) error {
	r := e.rep
	fmt.Fprintln(r.out, hostLine(e.work))
	game := stackelberg.DefaultGame()
	p.cfg.Seed += int64(e.seed) * int64(max(p.cfg.Restarts, 1))

	var setups []float64
	for k := 0; k < p.setupReps; k++ {
		t0 := time.Now()
		if _, err := buildRestarts(game, p.cfg, nil, 0); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	episodes := func(reps []trainRep) (eps sample) {
		for _, rep := range reps {
			eps = append(eps, rep.episodes...)
		}
		return eps
	}

	var all []trainRep
	if !e.traced {
		reps, err := trainReps(p, game, e.dur, nil)
		if err != nil {
			return err
		}
		all = reps
		// Every repetition trains the same seeds bit for bit, so episode i
		// of restart r does the same work each time. Each episode is timed
		// as its median over the repetitions, and p50 and the tail are
		// taken over the episodes. The restarts run in parallel, so the
		// throughput counts every episode against the slower restart's
		// sum of episode times. (On a shared 2-vCPU host the speed of
		// this compute switches between two levels about 1.6x apart for
		// seconds at a time. The fastest time over a run picks whichever
		// level the run happened to touch, and its tail spread 0.24
		// between ten runs; the median follows the level that held most
		// of the run.)
		runs := make([]sample, len(reps))
		for k, rep := range reps {
			runs[k] = rep.episodes
		}
		eps := byPosition(runs, time.Millisecond)
		var wallMs float64
		for lo := 0; lo < len(eps); lo += p.cfg.Episodes {
			wallMs = max(wallMs, sum(eps[lo:min(lo+p.cfg.Episodes, len(eps))]))
		}
		sorted := sortedCopy(eps)
		r.set("setup_s", median(setups), len(setups))
		r.set("p50_ms", percentile(sorted, 0.5), len(eps))
		r.set("tail_ms", tail(sorted), len(eps))
		r.set("throughput_per_s", float64(len(eps))/(wallMs/1e3), len(reps))
	} else {
		base, err := trainReps(p, game, e.dur/2, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		traced, err := trainReps(p, game, e.dur/2, tr)
		if err != nil {
			return err
		}
		all = append(base, traced...)
		baseEps, eps := episodes(base), episodes(traced)
		r.set("trace.ops", float64(len(eps)), len(eps))
		r.set("trace.op_mean_us", eps.mean(time.Microsecond), len(eps))
		r.set("trace.op_p99_us", eps.pct(0.99, time.Microsecond), len(eps))
		r.set("trace.overhead_ratio", eps.mean(time.Microsecond)/baseEps.mean(time.Microsecond), len(eps))
		step, policy, update := tr.stats("pomdp.Step"), tr.stats("rl.policy"), tr.stats("rl.update")
		r.set("pomdp.step_per_s", step.perSecond(), step.n)
		r.set("rl.policy_per_s", policy.perSecond(), policy.n)
		r.set("rl.update_per_s", update.perSecond(), update.n)
		r.set("rl.updates", float64(update.n), update.n)
		var busy, wall time.Duration
		for _, rep := range traced {
			busy += rep.busy
			wall += rep.wall
		}
		r.set("experiments.restart_parallelism", busy.Seconds()/wall.Seconds(), len(traced))
		r.notef("pomdp.Step %.2f µs, rl.policy %.2f µs, rl.update %.3f ms (means)",
			step.durs.mean(time.Microsecond), policy.durs.mean(time.Microsecond), update.durs.mean(time.Millisecond))
		if err := writeSpans(e, tr); err != nil {
			return err
		}
	}
	for _, rep := range all {
		r.attempted += len(rep.episodes)
	}

	// The reference: experiments.TrainAgent itself, after the timed
	// window. Every repetition must reproduce it bit for bit.
	want, err := experiments.TrainAgent(game, p.cfg)
	if err != nil {
		return err
	}
	for i, rep := range all {
		r.check(math.Float64bits(rep.price) == math.Float64bits(want.EvalPrice) &&
			math.Float64bits(rep.utility) == math.Float64bits(want.EvalOutcome.MSPUtility),
			"repetition %d: EvalPrice %v (utility %v) differs from TrainAgent's %v (utility %v)",
			i+1, rep.price, rep.utility, want.EvalPrice, want.EvalOutcome.MSPUtility)
	}
	r.set("utility_ratio", want.EvalOutcome.MSPUtility/want.OracleOutcome.MSPUtility, 1)
	r.notef("EvalPrice %.6f, oracle price %.6f", want.EvalPrice, want.OracleOutcome.Price)
	return nil
}
