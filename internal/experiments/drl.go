package experiments

import (
	"context"
	"fmt"

	"vtmig/internal/nn"
	"vtmig/internal/pomdp"
	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// DRLConfig bundles everything needed to train the MSP agent on a game.
type DRLConfig struct {
	// Episodes is E (paper: 500).
	Episodes int
	// Rounds is K (paper: 100).
	Rounds int
	// HistoryLen is L (paper: 4).
	HistoryLen int
	// UpdateEvery is |I| (paper: 20).
	UpdateEvery int
	// Reward selects the reward signal (paper: binary, Eq. 12).
	Reward pomdp.RewardKind
	// PPO carries the learner hyper-parameters.
	PPO rl.PPOConfig
	// Restarts trains this many independently seeded agents and keeps the
	// one with the best evaluated utility. Sparse-reward PPO occasionally
	// collapses to a dead policy; independent restarts are the standard
	// remedy. Values below 1 mean 1.
	Restarts int
	// CollectEnvs is the number of parallel training environments for
	// vectorized rollout collection. Values below 2 (the default) train on
	// a single environment — the paper's Algorithm 1 and the configuration
	// pinned by the golden files. With W ≥ 2, episodes run in lockstep
	// blocks of W independently seeded environments (env i uses
	// pomdp.VecSeed(Seed, i)): the training trajectory changes (each
	// optimization phase sees W envs' transitions) but stays
	// bit-reproducible for a fixed seed.
	CollectEnvs int
	// Deprecated: collection steps its envs serially, so the value is
	// ignored. bench/train.go is its only reader; the field goes when
	// that file stops passing it on.
	CollectWorkers int
	// Seed drives environment and learner randomness (restart r uses
	// Seed + r).
	Seed int64
}

// DefaultDRLConfig returns the configuration used by the experiment
// harness: the paper's L=4, K=100, |I|=20, M=10 with a practical number of
// episodes and learning rate (the paper's lr=1e-5 with E=500 is an
// ablation; see EXPERIMENTS.md).
func DefaultDRLConfig() DRLConfig {
	ppo := rl.DefaultPPOConfig()
	return DRLConfig{
		Episodes:    150,
		Rounds:      100,
		HistoryLen:  4,
		UpdateEvery: 20,
		Reward:      pomdp.RewardBinary,
		PPO:         ppo,
		Restarts:    2,
		Seed:        1,
	}
}

// Fingerprint pins everything that determines the training stream bit
// for bit — the game (followers, channel, price interval, bandwidth
// cap), the episode schedule inputs (K, L, |I|, reward, CollectEnvs),
// and the PPO hyper-parameters — while excluding the restart count, the
// seed (carried by the checkpoint's RNG states), and the episode budget
// (the resume point).
// Training checkpoints embed it; ResumeAgent refuses a checkpoint whose
// fingerprint does not match the requested game and configuration, so a
// stream can never silently continue on a different game that happens to
// share the observation layout.
func (c DRLConfig) Fingerprint(game *stackelberg.Game) string {
	collectEnvs := c.CollectEnvs
	if collectEnvs < 2 {
		collectEnvs = 1
	}
	gameDesc := "<nil>"
	if game != nil {
		gameDesc = fmt.Sprintf("%+v", *game)
	}
	return fmt.Sprintf("drl-v1|game=%s|K=%d|L=%d|I=%d|reward=%s|collect-envs=%d|%s",
		gameDesc, c.Rounds, c.HistoryLen, c.UpdateEvery, c.Reward, collectEnvs, c.PPO.Fingerprint())
}

// TrainResult is a trained agent plus its learning history and final
// evaluation.
type TrainResult struct {
	// Agent is the trained PPO learner.
	Agent *rl.PPO
	// Checkpoint is the full training checkpoint captured at the end of
	// training, before the evaluation readout consumed any randomness:
	// weights, Adam state, the policy RNG position, every environment
	// stream's state, and Meta{Episodes, Fingerprint}. Save it with
	// Checkpoint.Save; ResumeAgent continues the run from it
	// bit-identically. With Restarts > 1 it belongs to the winning
	// restart (its seed is recorded in Checkpoint.RNG.Seed).
	Checkpoint *nn.Checkpoint
	// Env is the training environment (with vectorized collection, the
	// identically configured evaluation environment; training then runs
	// on the CollectEnvs-instance bundle derived from it).
	Env *pomdp.GameEnv
	// Episodes are per-episode training statistics; Episodes[i].Return is
	// the Fig. 2(a) curve.
	Episodes []rl.EpisodeStats
	// EvalPrice is the deterministic policy's converged price.
	EvalPrice float64
	// EvalOutcome is the full equilibrium report at EvalPrice.
	EvalOutcome stackelberg.Equilibrium
	// OracleOutcome is the closed-form Stackelberg equilibrium for
	// reference.
	OracleOutcome stackelberg.Equilibrium
}

// TrainAgent trains the MSP's PPO agent on the given game with
// Algorithm 1 and evaluates the resulting deterministic policy. With
// cfg.Restarts > 1 it trains several independently seeded agents in
// parallel (each with its own environment and network) and returns the
// one with the highest evaluated MSP utility.
func TrainAgent(game *stackelberg.Game, cfg DRLConfig) (*TrainResult, error) {
	return TrainAgentCtx(context.Background(), game, cfg)
}

// TrainAgentCtx is TrainAgent with cancellation: restarts fan out through
// the shared worker pool and stop at the next episode boundary — the next
// episode-block boundary under vectorized collection (CollectEnvs ≥ 2) —
// when ctx is cancelled.
func TrainAgentCtx(ctx context.Context, game *stackelberg.Game, cfg DRLConfig) (*TrainResult, error) {
	restarts := cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	results := make([]*TrainResult, restarts)
	err := defaultPool.Run(ctx, restarts, func(ctx context.Context, r int) error {
		c := cfg
		c.Seed = cfg.Seed + int64(r)
		var err error
		results[r], err = trainOnce(ctx, game, c, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	var best *TrainResult
	for r := 0; r < restarts; r++ {
		if best == nil || results[r].EvalOutcome.MSPUtility > best.EvalOutcome.MSPUtility {
			best = results[r]
		}
	}
	return best, nil
}

// trainOnce runs a single training with one seed, stopping at the next
// episode boundary when ctx is cancelled. A non-nil resume checkpoint
// rewinds the freshly built trainer to the checkpointed episode before
// running (cfg.Episodes stays the TOTAL budget).
func trainOnce(ctx context.Context, game *stackelberg.Game, cfg DRLConfig, resume *nn.Checkpoint) (*TrainResult, error) {
	env, err := pomdp.NewGameEnv(pomdp.Config{
		Game:       game,
		HistoryLen: cfg.HistoryLen,
		Rounds:     cfg.Rounds,
		Reward:     cfg.Reward,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: building env: %w", err)
	}
	ppoCfg := cfg.PPO
	ppoCfg.Seed = cfg.Seed
	lo, hi := env.ActionBounds()
	agent := rl.NewPPO(env.ObsDim(), env.ActDim(), lo, hi, ppoCfg)
	trainer, err := newTrainer(env, agent, cfg)
	if err != nil {
		return nil, err
	}
	trainer.Fingerprint = cfg.Fingerprint(game)
	if resume != nil {
		if err := trainer.Restore(resume); err != nil {
			return nil, fmt.Errorf("experiments: restoring checkpoint: %w", err)
		}
	}
	trainer.OnEpisode = func(rl.EpisodeStats) bool { return ctx.Err() == nil }
	episodes := trainer.Run()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Snapshot the complete training state before the evaluation readout
	// consumes env/agent randomness, so a resumed run continues the
	// training stream exactly.
	ck, err := trainer.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("experiments: snapshotting training state: %w", err)
	}

	price := EvaluateAgent(env, agent, 20)
	return &TrainResult{
		Agent:         agent,
		Checkpoint:    ck,
		Env:           env,
		Episodes:      episodes,
		EvalPrice:     price,
		EvalOutcome:   game.Evaluate(price),
		OracleOutcome: game.Solve(),
	}, nil
}

// ResumeAgent continues a checkpointed training run: ck must be a full
// training checkpoint (TrainResult.Checkpoint, or a file written by
// vtmig-train -checkpoint), cfg describes the SAME training configured
// with the TOTAL episode budget, and the returned result is bit-identical
// to a run that never stopped — same final weights, same evaluation —
// under any GOMAXPROCS (determinism contract rule 6). The configuration
// fingerprint is checked before anything runs; cfg.Seed and cfg.Restarts
// are ignored (the checkpoint pins the stream's seed, and a checkpoint
// always belongs to exactly one training stream). Episodes of the result
// cover only the resumed leg.
func ResumeAgent(game *stackelberg.Game, cfg DRLConfig, ck *nn.Checkpoint) (*TrainResult, error) {
	return ResumeAgentCtx(context.Background(), game, cfg, ck)
}

// ResumeAgentCtx is ResumeAgent with cancellation at episode boundaries.
func ResumeAgentCtx(ctx context.Context, game *stackelberg.Game, cfg DRLConfig, ck *nn.Checkpoint) (*TrainResult, error) {
	if ck == nil {
		return nil, fmt.Errorf("experiments: nil checkpoint")
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	if got, want := ck.Meta.Fingerprint, cfg.Fingerprint(game); got != want {
		return nil, fmt.Errorf("experiments: checkpoint was trained under a different configuration\n  checkpoint: %s\n  requested:  %s", got, want)
	}
	if ck.Meta.Episodes > cfg.Episodes {
		return nil, fmt.Errorf("experiments: checkpoint already has %d episodes, beyond the requested total %d", ck.Meta.Episodes, cfg.Episodes)
	}
	cfg.Seed = ck.RNG.Seed
	cfg.Restarts = 1
	return trainOnce(ctx, game, cfg, ck)
}

// newTrainer builds the Algorithm 1 trainer for the given agent: the
// classic single-environment trainer when cfg.CollectEnvs < 2 (the
// golden-pinned serial path), otherwise a vectorized trainer over
// CollectEnvs independently seeded copies of env — derived from env's own
// configuration, so the vectorized and serial paths can never train on
// differently-configured environments. In vectorized mode env itself is
// kept out of training and serves as the evaluation environment.
func newTrainer(env *pomdp.GameEnv, agent *rl.PPO, cfg DRLConfig) (*rl.Trainer, error) {
	tcfg := rl.TrainerConfig{
		Episodes:         cfg.Episodes,
		RoundsPerEpisode: cfg.Rounds,
		UpdateEvery:      cfg.UpdateEvery,
	}
	if cfg.CollectEnvs < 2 {
		return rl.NewTrainer(env, agent, tcfg), nil
	}
	vec, err := pomdp.NewVecEnv(env.Config(), cfg.CollectEnvs)
	if err != nil {
		return nil, fmt.Errorf("experiments: building vectorized envs: %w", err)
	}
	return rl.NewVecTrainer(vec, agent, tcfg), nil
}

// WarmStartAgent rebuilds a deployable PPO agent from a checkpoint for
// the given reference game: the network architecture comes from ppo
// (Hidden/Activation) and the observation layout from historyLen and the
// game, exactly as training on a pomdp.GameEnv over game would have built
// it — both must match the checkpoint, and the strict restore fails
// loudly otherwise. The complete learner state is restored, so continued
// online training picks the stream up where the checkpoint left it.
func WarmStartAgent(game *stackelberg.Game, historyLen int, ppo rl.PPOConfig, ck *nn.Checkpoint) (*rl.PPO, error) {
	enc, err := pomdp.NewGameEncoder(historyLen, game)
	if err != nil {
		return nil, err
	}
	agent := rl.NewPPO(enc.ObsDim(), 1, []float64{game.Cost}, []float64{game.PMax}, ppo)
	if err := agent.Restore(ck); err != nil {
		return nil, err
	}
	return agent, nil
}

// HistoryLenFromCheckpoint derives the observation history length L a
// checkpointed agent was trained with over the given reference game from
// the input layer's parameter shapes: the observation dimension is
// len(trunk.l0.W)/len(trunk.l0.b), and every encoder row over an N-VMU
// game is 1+N wide. Tooling uses it to rebuild a matching agent from a
// checkpoint without the user repeating the -history flag.
func HistoryLenFromCheckpoint(ck *nn.Checkpoint, game *stackelberg.Game) (int, error) {
	if ck == nil {
		return 0, fmt.Errorf("experiments: nil checkpoint")
	}
	w, okW := ck.Params["trunk.l0.W"]
	b, okB := ck.Params["trunk.l0.b"]
	if !okW || !okB || len(b) == 0 {
		return 0, fmt.Errorf("experiments: checkpoint lacks the trunk.l0 input layer; cannot derive its history length")
	}
	if len(w)%len(b) != 0 {
		return 0, fmt.Errorf("experiments: checkpoint input layer is inconsistent (%d weights over %d biases)", len(w), len(b))
	}
	obsDim := len(w) / len(b)
	width := 1 + game.N()
	if obsDim%width != 0 || obsDim == 0 {
		return 0, fmt.Errorf("experiments: checkpoint observation dim %d does not tile into rows of 1+N=%d over this game — was it trained on a different game size?", obsDim, width)
	}
	return obsDim / width, nil
}

// EvaluateAgent estimates the learned deterministic price. It plays the
// stochastic policy for the given number of rounds — keeping the
// observation history on the training distribution — and averages the
// deterministic (mean) action over the trailing half of the rounds. Each
// round is one forward pass (rl.PPO.SelectActionWithMean), which yields
// both the mean and the sample.
//
// Rolling the deterministic policy forward on its own outputs is NOT a
// valid readout: constant-price histories never occur during training, so
// the deterministic closed loop can drift into spurious off-distribution
// fixed points.
func EvaluateAgent(env *pomdp.GameEnv, agent *rl.PPO, rounds int) float64 {
	obs := env.Reset()
	tail := rounds / 2
	if tail < 1 {
		tail = 1
	}
	var sum float64
	var count int
	for k := 0; k < rounds; k++ {
		_, envAct, _, _, meanEnv := agent.SelectActionWithMean(obs)
		if k >= rounds-tail {
			sum += meanEnv[0]
			count++
		}
		var done bool
		obs, _, done = env.Step(envAct)
		if done {
			obs = env.Reset()
		}
	}
	return sum / float64(count)
}
