// Command vtmig-train trains the MSP's DRL pricing agent (Algorithm 1) on
// the paper's two-VMU benchmark under incomplete information, prints the
// learning curve, and compares the learned policy against the closed-form
// Stackelberg equilibrium and the baseline schemes.
//
// Usage:
//
//	vtmig-train [-episodes 500] [-rounds 100] [-history 4] [-lr 3e-4]
//	            [-reward binary|shaped] [-seed 1] [-checkpoint out.bin]
//	            [-resume ck.bin] [-collect-envs 1]
//
// -collect-envs W ≥ 2 enables vectorized collection: episodes run in
// lockstep blocks of W independently seeded environments with the policy
// evaluated for all of them in one batched pass per round.
//
// -checkpoint writes a FULL training checkpoint — weights, Adam state,
// RNG stream positions, environment streams, episode count — in the
// binary checkpoint encoding, and -resume continues training from one:
// with -resume ck.bin and -episodes E, the run picks the stream up at the
// checkpointed episode and trains to E total, bit-identical to a run that
// never stopped (the training flags must match the checkpointed
// configuration; -seed is taken from the checkpoint, and -restarts does
// not apply since a checkpoint pins one training stream).
package main

import (
	"flag"
	"fmt"
	"os"

	"vtmig/internal/baselines"
	"vtmig/internal/experiments"
	"vtmig/internal/nn"
	"vtmig/internal/pomdp"
	"vtmig/internal/stackelberg"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vtmig-train:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vtmig-train", flag.ContinueOnError)
	var (
		episodes   = fs.Int("episodes", 500, "training episodes E")
		rounds     = fs.Int("rounds", 100, "game rounds per episode K")
		history    = fs.Int("history", 4, "observation history length L")
		lr         = fs.Float64("lr", 3e-4, "Adam learning rate")
		reward     = fs.String("reward", "binary", "reward signal: binary (Eq. 12) or shaped")
		seed       = fs.Int64("seed", 1, "random seed (ignored under -resume: the checkpoint pins the stream seed)")
		checkpoint = fs.String("checkpoint", "", "write the full training checkpoint (weights, optimizer, RNG, env streams) to this file")
		resume     = fs.String("resume", "", "resume training from this checkpoint (-episodes is the TOTAL episode budget)")

		collectEnvs = fs.Int("collect-envs", 1, "parallel training environments for vectorized collection (≥2 enables lockstep episode blocks)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.DefaultDRLConfig()
	cfg.Episodes = *episodes
	cfg.Rounds = *rounds
	cfg.HistoryLen = *history
	cfg.PPO.LR = *lr
	cfg.Seed = *seed
	if *collectEnvs < 1 {
		return fmt.Errorf("collect-envs must be at least 1, got %d", *collectEnvs)
	}
	cfg.CollectEnvs = *collectEnvs
	switch *reward {
	case "binary":
		cfg.Reward = pomdp.RewardBinary
	case "shaped":
		cfg.Reward = pomdp.RewardShaped
	default:
		return fmt.Errorf("unknown reward %q (want binary or shaped)", *reward)
	}

	game := stackelberg.DefaultGame()
	fmt.Printf("Training PPO agent: E=%d K=%d L=%d |I|=%d M=%d lr=%g reward=%s\n",
		cfg.Episodes, cfg.Rounds, cfg.HistoryLen, cfg.UpdateEvery, cfg.PPO.Epochs, cfg.PPO.LR, *reward)
	if cfg.CollectEnvs > 1 {
		fmt.Printf("Vectorized collection: %d envs per episode block\n", cfg.CollectEnvs)
	}
	var res *experiments.TrainResult
	var err error
	if *resume != "" {
		ck, err2 := loadCheckpointFile(*resume)
		if err2 != nil {
			return err2
		}
		fmt.Printf("Resuming from %s at episode %d\n", *resume, ck.Meta.Episodes)
		res, err = experiments.ResumeAgent(game, cfg, ck)
	} else {
		res, err = experiments.TrainAgent(game, cfg)
	}
	if err != nil {
		return err
	}
	if len(res.Episodes) == 0 {
		return fmt.Errorf("no episodes left to train (checkpoint already at the requested budget)")
	}

	// Print the learning curve at one-tenth resolution.
	stride := len(res.Episodes) / 10
	if stride == 0 {
		stride = 1
	}
	fmt.Println("\nepisode  return")
	for i := 0; i < len(res.Episodes); i += stride {
		fmt.Printf("%7d  %6.1f\n", res.Episodes[i].Episode, res.Episodes[i].Return)
	}
	last := res.Episodes[len(res.Episodes)-1]
	fmt.Printf("%7d  %6.1f (final)\n", last.Episode, last.Return)

	eq := res.OracleOutcome
	fmt.Printf("\nLearned price  %.3f   (Stackelberg equilibrium %.3f)\n", res.EvalPrice, eq.Price)
	fmt.Printf("Learned U_s    %.4f  (Stackelberg equilibrium %.4f, regret %.2f%%)\n",
		res.EvalOutcome.MSPUtility, eq.MSPUtility,
		(eq.MSPUtility-res.EvalOutcome.MSPUtility)/eq.MSPUtility*100)

	for _, name := range []string{"greedy", "random"} {
		var p baselines.Policy
		if name == "greedy" {
			p = baselines.NewGreedy(game.Cost, game.PMax, 0.1, *seed)
		} else {
			p = baselines.NewRandom(game.Cost, game.PMax, *seed)
		}
		r := baselines.RunEpisode(game, p, cfg.Rounds)
		fmt.Printf("Baseline %-7s mean U_s %.4f\n", name, r.MeanUtility)
	}

	if *checkpoint != "" {
		if err := res.Checkpoint.WriteFile(*checkpoint); err != nil {
			return fmt.Errorf("writing checkpoint: %w", err)
		}
		fmt.Printf("Full training checkpoint written to %s (binary, episode %d; resume with -resume)\n",
			*checkpoint, res.Checkpoint.Meta.Episodes)
	}
	return nil
}

// loadCheckpointFile reads and validates a checkpoint file.
func loadCheckpointFile(path string) (*nn.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening checkpoint: %w", err)
	}
	defer f.Close()
	ck, err := nn.LoadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return ck, nil
}
