package experiments

import (
	"context"
	"fmt"

	"vtmig/internal/pomdp"
	"vtmig/internal/stackelberg"
)

// RunHistoryAblationCtx varies the observation history length L (the
// paper fixes L=4) and reports the learned policy's regret against the
// closed-form equilibrium. Ablation cells train concurrently through the
// shared worker pool, one row per length in input order; cancelling ctx
// stops training.
func RunHistoryAblationCtx(ctx context.Context, lengths []int, cfg DRLConfig) (*Table, error) {
	t := &Table{
		Title:   "ablation: observation history length L",
		Columns: []string{"L", "drl_price", "eq_price", "drl_Us", "eq_Us", "regret_pct"},
	}
	game := stackelberg.DefaultGame()
	for _, l := range lengths {
		if l <= 0 {
			return nil, fmt.Errorf("experiments: invalid history length %d", l)
		}
	}
	results := make([]*TrainResult, len(lengths))
	err := defaultPool.Run(ctx, len(lengths), func(ctx context.Context, i int) error {
		c := cfg
		c.HistoryLen = lengths[i]
		res, err := TrainAgentCtx(ctx, game, c)
		if err != nil {
			return fmt.Errorf("experiments: history ablation at L=%d: %w", lengths[i], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, l := range lengths {
		res := results[i]
		t.AddRow(float64(l),
			res.EvalOutcome.Price, res.OracleOutcome.Price,
			res.EvalOutcome.MSPUtility, res.OracleOutcome.MSPUtility,
			regretPct(res.EvalOutcome.MSPUtility, res.OracleOutcome.MSPUtility),
		)
	}
	return t, nil
}

// RunRewardAblationCtx compares the paper's binary reward (Eq. 12) with
// the dense shaped reward on the benchmark game. The two cells train
// concurrently through the shared worker pool; cancelling ctx stops
// training.
func RunRewardAblationCtx(ctx context.Context, cfg DRLConfig) (*Table, error) {
	t := &Table{
		Title:   "ablation: binary (Eq. 12) vs shaped reward",
		Columns: []string{"reward_kind", "drl_price", "eq_price", "drl_Us", "eq_Us", "regret_pct"},
	}
	game := stackelberg.DefaultGame()
	kinds := []pomdp.RewardKind{pomdp.RewardBinary, pomdp.RewardShaped}
	results := make([]*TrainResult, len(kinds))
	err := defaultPool.Run(ctx, len(kinds), func(ctx context.Context, i int) error {
		c := cfg
		c.Reward = kinds[i]
		res, err := TrainAgentCtx(ctx, game, c)
		if err != nil {
			return fmt.Errorf("experiments: reward ablation (%v): %w", kinds[i], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		// Column 0 encodes the kind: 0 = binary, 1 = shaped.
		t.AddRow(float64(i),
			res.EvalOutcome.Price, res.OracleOutcome.Price,
			res.EvalOutcome.MSPUtility, res.OracleOutcome.MSPUtility,
			regretPct(res.EvalOutcome.MSPUtility, res.OracleOutcome.MSPUtility),
		)
	}
	return t, nil
}

// RunSolverAblation compares the closed-form follower equilibrium with the
// iterated-best-response solver across the price range.
func RunSolverAblation() *Table {
	t := &Table{
		Title:   "ablation: closed-form vs iterated-best-response followers",
		Columns: []string{"price", "closed_total_bw", "ibr_total_bw", "max_abs_diff"},
	}
	game := stackelberg.DefaultGame()
	for _, p := range []float64{6, 10, 20, 25.34, 35, 49} {
		closed := game.BestResponses(p)
		ibr := game.SolveFollowersIBR(p, 10, 1e-10)
		var sumC, sumI, maxDiff float64
		for i := range closed {
			sumC += closed[i]
			sumI += ibr[i]
			if d := abs(closed[i] - ibr[i]); d > maxDiff {
				maxDiff = d
			}
		}
		t.AddRow(p, sumC*BandwidthDisplayScale, sumI*BandwidthDisplayScale, maxDiff*BandwidthDisplayScale)
	}
	return t
}

// regretPct returns how far achieved falls short of optimal, in percent.
func regretPct(achieved, optimal float64) float64 {
	if optimal == 0 {
		return 0
	}
	return (optimal - achieved) / optimal * 100
}

// abs avoids importing math for one call site.
func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
