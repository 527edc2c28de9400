package experiments

import (
	"context"
	"fmt"
	"math"

	"vtmig/internal/mathx"
	"vtmig/internal/stackelberg"
)

// SeedStudy reports the cross-seed variability of the DRL agent.
type SeedStudy struct {
	// Prices and Utilities hold the evaluated outcome per seed.
	Prices, Utilities []float64
	// OracleUtility is the equilibrium reference.
	OracleUtility float64
}

// RunSeedStudyCtx trains one agent per seed in parallel and collects the
// evaluated price and MSP utility of each — the statistical robustness
// check behind the single-seed curves of Fig. 2. The per-seed trainings
// fan out through the shared worker pool; cancelling ctx stops them.
func RunSeedStudyCtx(ctx context.Context, game *stackelberg.Game, cfg DRLConfig, seeds int) (*SeedStudy, error) {
	if seeds < 2 {
		return nil, fmt.Errorf("experiments: seed study needs >= 2 seeds, got %d", seeds)
	}
	study := &SeedStudy{
		Prices:        make([]float64, seeds),
		Utilities:     make([]float64, seeds),
		OracleUtility: game.Solve().MSPUtility,
	}
	err := defaultPool.Run(ctx, seeds, func(ctx context.Context, s int) error {
		c := cfg
		c.Restarts = 1 // the study wants raw per-seed outcomes
		c.Seed = cfg.Seed + int64(s)
		res, err := trainOnce(ctx, game, c, nil)
		if err != nil {
			return err
		}
		study.Prices[s] = res.EvalPrice
		study.Utilities[s] = res.EvalOutcome.MSPUtility
		return nil
	})
	if err != nil {
		return nil, err
	}
	return study, nil
}

// Table summarizes the study: mean, standard deviation, 95 % normal-
// approximation confidence half-width, and extremes for price and
// utility, plus the mean regret against the equilibrium.
func (s *SeedStudy) Table() *Table {
	t := &Table{
		Title:   "seed study: cross-seed robustness of the DRL agent",
		Columns: []string{"metric", "mean", "std", "ci95_halfwidth", "min", "max"},
	}
	n := float64(len(s.Utilities))
	addRow := func(idx float64, xs []float64) {
		lo, hi := mathx.MinMax(xs)
		std := mathx.StdDev(xs)
		t.AddRow(idx, mathx.Mean(xs), std, 1.96*std/math.Sqrt(n), lo, hi)
	}
	// Row 0: price; row 1: MSP utility; row 2: regret (%).
	addRow(0, s.Prices)
	addRow(1, s.Utilities)
	regrets := make([]float64, len(s.Utilities))
	for i, u := range s.Utilities {
		regrets[i] = regretPct(u, s.OracleUtility)
	}
	addRow(2, regrets)
	return t
}
