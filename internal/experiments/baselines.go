package experiments

import (
	"context"
	"fmt"

	"vtmig/internal/baselines"
	"vtmig/internal/stackelberg"
)

// RunBaselineComparisonCtx plays every pricing scheme on the benchmark
// game for K-round episodes and reports the mean and best MSP utility of
// each, averaged over several seeds. It includes the paper's comparators
// (random, greedy) plus the reproduction's extra baselines (tabular
// Q-learning, two-probe model identification) and the DRL agent, whose
// training stops when ctx is cancelled.
func RunBaselineComparisonCtx(ctx context.Context, game *stackelberg.Game, cfg DRLConfig, seeds int) (*Table, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("experiments: seeds must be >= 1, got %d", seeds)
	}
	t := &Table{
		Title: "baselines: mean/best MSP utility per scheme",
		// Column 0 encodes the scheme index in schemeNames order.
		Columns: []string{"scheme", "mean_Us", "best_Us", "eq_Us"},
	}
	oracle := game.Solve()

	mk := func(name string, seed int64) baselines.Policy {
		switch name {
		case "oracle":
			return baselines.NewOracle(game)
		case "greedy":
			return baselines.NewGreedy(game.Cost, game.PMax, 0.1, seed)
		case "random":
			return baselines.NewRandom(game.Cost, game.PMax, seed)
		case "qlearning":
			return baselines.NewQLearning(game.Cost, game.PMax, 46, 1.0, 1.0, 0.99, seed)
		case "identification":
			return baselines.NewIdentification(game.Cost, game.PMax, game.Cost)
		default:
			panic("experiments: unknown scheme " + name)
		}
	}

	for i, name := range BaselineSchemes {
		if name == "drl" {
			res, err := TrainAgentCtx(ctx, game, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: baseline comparison DRL: %w", err)
			}
			us := res.EvalOutcome.MSPUtility
			t.AddRow(float64(i), us, us, oracle.MSPUtility)
			continue
		}
		var mean, best float64
		for s := 0; s < seeds; s++ {
			r := baselines.RunEpisode(game, mk(name, int64(s)), cfg.Rounds)
			mean += r.MeanUtility / float64(seeds)
			best += r.BestUtility / float64(seeds)
		}
		t.AddRow(float64(i), mean, best, oracle.MSPUtility)
	}
	return t, nil
}

// BaselineSchemes lists the schemes of RunBaselineComparisonCtx in row
// order.
var BaselineSchemes = []string{"oracle", "drl", "identification", "qlearning", "greedy", "random"}
