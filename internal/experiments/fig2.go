package experiments

import (
	"context"
	"fmt"

	"vtmig/internal/pomdp"
	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// Fig2Result reproduces Fig. 2: the convergence of the DRL-based incentive
// mechanism on the two-VMU benchmark.
type Fig2Result struct {
	// Return is Fig. 2(a): the per-episode game return, converging to the
	// max round K as the policy learns to match the historical best
	// utility every round.
	Return *Series
	// Utility is Fig. 2(b): the deterministic policy's MSP utility after
	// each episode, converging to the Stackelberg equilibrium.
	Utility *Series
	// OracleUtility is the closed-form equilibrium U_s (the dashed
	// reference line).
	OracleUtility float64
	// Train carries the trained agent and final evaluation.
	Train *TrainResult
}

// Tables renders both panels as tables.
func (r *Fig2Result) Tables() []*Table {
	oracle := &Series{Name: "stackelberg_Us"}
	for i := range r.Utility.X {
		oracle.Append(r.Utility.X[i], r.OracleUtility)
	}
	return []*Table{
		SeriesTable("fig2a: return of each episode", "episode", r.Return),
		SeriesTable("fig2b: MSP utility convergence", "episode", r.Utility, oracle),
	}
}

// RunFig2Ctx trains the MSP agent on the paper's two-VMU scenario
// (α₁=α₂=5, D₁=200 MB, D₂=100 MB, C=5) and records both convergence
// curves. Training stops at the next episode boundary (the next
// episode-block boundary under vectorized collection) when ctx is
// cancelled and the cancellation error is returned.
func RunFig2Ctx(ctx context.Context, game *stackelberg.Game, cfg DRLConfig) (*Fig2Result, error) {
	// A separate evaluation environment keeps deterministic evaluations
	// from disturbing the training episode stream.
	evalEnv, err := pomdp.NewGameEnv(pomdp.Config{
		Game:       game,
		HistoryLen: cfg.HistoryLen,
		Rounds:     cfg.Rounds,
		Reward:     cfg.Reward,
		Seed:       cfg.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: building eval env: %w", err)
	}

	trainEnv, err := pomdp.NewGameEnv(pomdp.Config{
		Game:       game,
		HistoryLen: cfg.HistoryLen,
		Rounds:     cfg.Rounds,
		Reward:     cfg.Reward,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: building train env: %w", err)
	}
	ppoCfg := cfg.PPO
	ppoCfg.Seed = cfg.Seed
	lo, hi := trainEnv.ActionBounds()
	agent := rl.NewPPO(trainEnv.ObsDim(), trainEnv.ActDim(), lo, hi, ppoCfg)

	res := &Fig2Result{
		Return:        &Series{Name: "return"},
		Utility:       &Series{Name: "drl_Us"},
		OracleUtility: game.Solve().MSPUtility,
	}
	trainer, err := newTrainer(trainEnv, agent, cfg)
	if err != nil {
		return nil, err
	}
	// One scratch serves every per-episode utility probe; only the scalar
	// MSPUtility is read from the aliased report.
	var evalScratch stackelberg.EvalScratch
	trainer.OnEpisode = func(s rl.EpisodeStats) bool {
		res.Return.Append(float64(s.Episode), s.Return)
		price := EvaluateAgent(evalEnv, agent, cfg.HistoryLen+2)
		res.Utility.Append(float64(s.Episode), game.EvaluateInto(&evalScratch, price).MSPUtility)
		return ctx.Err() == nil
	}
	episodes := trainer.Run()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	price := EvaluateAgent(evalEnv, agent, 20)
	res.Train = &TrainResult{
		Agent:         agent,
		Env:           trainEnv,
		Episodes:      episodes,
		EvalPrice:     price,
		EvalOutcome:   game.Evaluate(price),
		OracleOutcome: game.Solve(),
	}
	return res, nil
}
