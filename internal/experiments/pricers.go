package experiments

import (
	"fmt"
	"os"

	"vtmig/internal/nn"
	"vtmig/internal/rl"
	"vtmig/internal/sim"
	"vtmig/internal/stackelberg"
)

// This file registers the learning pricers ("drl", "online") with the
// sim pricer registry, so any sim.PricerSpec naming them builds through
// sim.NewPricerFromSpec once this package is linked in — the
// database/sql registration pattern. The analytic pricers (oracle,
// fixed, random) are registered by sim itself.
func init() {
	sim.RegisterPricer("drl", buildDRLPricer)
	sim.RegisterPricer("online", buildOnlinePricer)
}

// defaultSpecEpisodes is the offline training budget a spec adopts when
// train_episodes is unset — the historical vtmig-sim default, sized for
// interactive runs rather than the full study's DefaultDRLConfig budget.
const defaultSpecEpisodes = 30

// trainForSpec runs the offline training a "drl" or warm-started
// "online" spec asks for: the paper's benchmark game, a single restart,
// and the spec's episode budget, seed, history length, and learning rate
// (unset fields adopt the defaults).
func trainForSpec(spec sim.PricerSpec, opts sim.PricerBuildOptions) (*TrainResult, error) {
	cfg := DefaultDRLConfig()
	cfg.Restarts = 1
	cfg.Episodes = spec.TrainEpisodes
	if cfg.Episodes == 0 {
		cfg.Episodes = defaultSpecEpisodes
	}
	if cfg.Episodes < 0 {
		return nil, fmt.Errorf("experiments: pricer %q: train_episodes %d must not be negative", spec.Name, cfg.Episodes)
	}
	cfg.Seed = spec.SeedOr(opts.DefaultSeed)
	if spec.HistoryLen != 0 {
		cfg.HistoryLen = spec.HistoryLen
	}
	if spec.LR != 0 {
		cfg.PPO.LR = spec.LR
	}
	opts.Printf("Training PPO pricing agent offline (%d episodes x %d rounds)...", cfg.Episodes, cfg.Rounds)
	res, err := TrainAgent(stackelberg.DefaultGame(), cfg)
	if err != nil {
		return nil, fmt.Errorf("offline training: %w", err)
	}
	return res, nil
}

// buildDRLPricer trains the MSP agent offline and deploys it frozen.
func buildDRLPricer(spec sim.PricerSpec, opts sim.PricerBuildOptions) (sim.Pricer, error) {
	if err := spec.CheckAllowedFields("seed", "train_episodes", "history_len", "lr"); err != nil {
		return nil, err
	}
	res, err := trainForSpec(spec, opts)
	if err != nil {
		return nil, err
	}
	return FrozenPricer(res)
}

// buildOnlinePricer deploys the online continual-learning pricer:
// warm-started from in-process offline training (the default), from a
// checkpoint file (warm_start_file — a full training checkpoint adopts
// its own architecture metadata, a mid-run pricer checkpoint resumes the
// online run exactly), or cold (warm_start false).
func buildOnlinePricer(spec sim.PricerSpec, opts sim.PricerBuildOptions) (sim.Pricer, error) {
	if err := spec.CheckAllowedFields("seed", "train_episodes", "update_every", "warm_start", "warm_start_file", "history_len", "lr"); err != nil {
		return nil, err
	}
	game := stackelberg.DefaultGame()
	onlineCfg := sim.OnlinePricerConfig{
		Game:          game,
		UpdateEvery:   spec.UpdateEvery,
		Seed:          spec.SeedOr(opts.DefaultSeed),
		SnapshotEvery: opts.SnapshotEvery,
		OnSnapshot:    opts.OnSnapshot,
	}
	// Reject a broken configuration before spending the offline training
	// budget on it.
	if err := onlineCfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case spec.WarmStartFile != "":
		res, err := ResolveWarmStart(spec.WarmStartFile, game, DefaultDRLConfig().PPO, spec.HistoryLen, spec.LR)
		if err != nil {
			return nil, err
		}
		ck := res.Checkpoint
		if ck.Pricer != nil {
			// Mid-run pricer checkpoint: resume the online run exactly
			// (belief window, best tracker, stream counters, learner).
			// Unset history_len/update_every adopt the checkpointed values;
			// explicitly set ones are matched by the resume constructor.
			onlineCfg.PPO = res.PPO
			onlineCfg.HistoryLen = spec.HistoryLen
			opts.Printf("Resuming online pricer from %s at round %d (update %d)",
				spec.WarmStartFile, ck.Pricer.Rounds, ck.Pricer.Updates)
			return sim.NewOnlinePricerFromCheckpoint(onlineCfg, ck)
		}
		agent, err := WarmStartAgent(game, res.HistoryLen, res.PPO, ck)
		if err != nil {
			return nil, err
		}
		opts.Printf("Warm-starting online pricer from %s: full training state (history %d, lr %g)",
			spec.WarmStartFile, res.HistoryLen, res.PPO.LR)
		onlineCfg.Agent = agent
		onlineCfg.HistoryLen = res.HistoryLen
	case spec.WarmStart == nil || *spec.WarmStart:
		res, err := trainForSpec(spec, opts)
		if err != nil {
			return nil, err
		}
		onlineCfg.Agent = res.Agent
		onlineCfg.HistoryLen = res.Env.Config().HistoryLen
	}
	return sim.NewOnlinePricer(onlineCfg)
}

// WarmStartResolution is a loaded warm-start checkpoint plus the agent
// architecture resolved against it (see ResolveWarmStart).
type WarmStartResolution struct {
	// Checkpoint is the loaded file. Checkpoint.Pricer is non-nil for a
	// mid-run online-pricer snapshot — callers that cannot resume one
	// (vtmig-serve) must reject it themselves.
	Checkpoint *nn.Checkpoint
	// HistoryLen is the resolved observation history length L.
	HistoryLen int
	// PPO is the learner configuration with the resolved learning rate.
	PPO rl.PPOConfig
}

// ResolveWarmStart loads a checkpoint file and resolves the agent
// architecture with the adopt-or-match convention: the checkpoint carries
// its own history length and learning rate, so unset requests
// (historyLen 0, lr 0) adopt them and explicitly set ones must match or
// the resolution fails loudly. A learner fingerprint without a learning
// rate leaves lr to the request (0 keeps ppo.LR). Both vtmig-sim's and
// vtmig-serve's warm-start paths build on it.
func ResolveWarmStart(path string, game *stackelberg.Game, ppo rl.PPOConfig, historyLen int, lr float64) (*WarmStartResolution, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading checkpoint: %w", err)
	}
	ck, err := nn.LoadCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	derived, err := HistoryLenFromCheckpoint(ck, game)
	if err != nil {
		return nil, err
	}
	if historyLen != 0 && historyLen != derived {
		return nil, fmt.Errorf("history_len %d conflicts with %s, which was trained with history length %d (leave it unset to adopt it)",
			historyLen, path, derived)
	}
	res := &WarmStartResolution{Checkpoint: ck, HistoryLen: derived, PPO: ppo}
	if v, ok := rl.LRFromFingerprint(ck.Meta.PPO); ok {
		if lr != 0 && lr != v {
			return nil, fmt.Errorf("lr %g conflicts with %s, which was trained with learning rate %g (leave it unset to adopt it)",
				lr, path, v)
		}
		res.PPO.LR = v
	} else if lr != 0 {
		res.PPO.LR = lr
	}
	return res, nil
}
