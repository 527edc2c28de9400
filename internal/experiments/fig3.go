package experiments

import (
	"context"
	"fmt"

	"vtmig/internal/aotm"
	"vtmig/internal/baselines"
	"vtmig/internal/channel"
	"vtmig/internal/mathx"
	"vtmig/internal/stackelberg"
)

// BandwidthDisplayScale converts model-unit bandwidth (MHz) into the
// paper's plotted bandwidth unit (10 kHz); see the calibration note in
// DESIGN.md.
const BandwidthDisplayScale = 100

// baselineSeeds is the number of random/greedy episodes averaged per sweep
// point.
const baselineSeeds = 10

// CostSweepResult reproduces Fig. 3(a) and 3(b): the effect of the unit
// transmission cost C ∈ {5..9} on the two-VMU benchmark.
type CostSweepResult struct {
	// Fig3a holds per-cost MSP-side outcomes: DRL vs Stackelberg
	// equilibrium vs greedy vs random.
	Fig3a *Table
	// Fig3b holds per-cost VMU-side outcomes: total utility and total
	// bandwidth (in the paper's ×10 kHz display unit).
	Fig3b *Table
}

// RunCostSweepCtx trains one DRL agent per cost value and compares it
// against the closed-form equilibrium and the baseline schemes
// (Fig. 3(a)/(b)); cancelling ctx stops training. Sweep points train
// concurrently through the shared worker pool; each point is seeded
// independently, so the rows — appended in sweep order after all points
// finish — are identical to a sequential run.
func RunCostSweepCtx(ctx context.Context, costs []float64, cfg DRLConfig) (*CostSweepResult, error) {
	fig3a := &Table{
		Title: "fig3a: MSP utility & price vs transmission cost",
		Columns: []string{
			"cost", "drl_price", "eq_price",
			"drl_Us", "eq_Us", "greedy_Us", "random_Us",
		},
	}
	fig3b := &Table{
		Title: "fig3b: total VMU utility & bandwidth vs transmission cost",
		Columns: []string{
			"cost", "drl_bw_x10kHz", "eq_bw_x10kHz",
			"drl_vmu_utility", "eq_vmu_utility",
		},
	}
	type point struct {
		res            *TrainResult
		greedy, random float64
	}
	points := make([]point, len(costs))
	err := defaultPool.Run(ctx, len(costs), func(ctx context.Context, i int) error {
		game := stackelberg.DefaultGame()
		game.Cost = costs[i]
		res, err := TrainAgentCtx(ctx, game, cfg)
		if err != nil {
			return fmt.Errorf("experiments: cost sweep at C=%g: %w", costs[i], err)
		}
		greedyUs, randomUs := baselineUtilities(game, cfg.Rounds)
		points[i] = point{res: res, greedy: greedyUs, random: randomUs}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range costs {
		eq := points[i].res.OracleOutcome
		drl := points[i].res.EvalOutcome
		fig3a.AddRow(c, drl.Price, eq.Price, drl.MSPUtility, eq.MSPUtility, points[i].greedy, points[i].random)
		fig3b.AddRow(c,
			drl.TotalBandwidth*BandwidthDisplayScale,
			eq.TotalBandwidth*BandwidthDisplayScale,
			mathx.Sum(drl.VMUUtilities),
			mathx.Sum(eq.VMUUtilities),
		)
	}
	return &CostSweepResult{Fig3a: fig3a, Fig3b: fig3b}, nil
}

// VMUSweepResult reproduces Fig. 3(c) and 3(d): the effect of the number
// of VMUs N ∈ {1..6} with D=100 MB, α=5, C=5, Bmax=0.5 MHz.
type VMUSweepResult struct {
	// Fig3c holds per-N MSP outcomes.
	Fig3c *Table
	// Fig3d holds per-N average VMU outcomes.
	Fig3d *Table
}

// RunVMUSweepCtx trains one DRL agent per population size and reports
// MSP and average-VMU outcomes (Fig. 3(c)/(d)); cancelling ctx stops
// training. Sweep points train concurrently through the shared worker
// pool with rows emitted in sweep order.
func RunVMUSweepCtx(ctx context.Context, ns []int, cfg DRLConfig) (*VMUSweepResult, error) {
	fig3c := &Table{
		Title:   "fig3c: MSP utility & price vs number of VMUs",
		Columns: []string{"n", "drl_price", "eq_price", "drl_Us", "eq_Us"},
	}
	fig3d := &Table{
		Title: "fig3d: average VMU utility & bandwidth vs number of VMUs",
		Columns: []string{
			"n", "drl_avg_bw_x10kHz", "eq_avg_bw_x10kHz",
			"drl_avg_vmu_utility", "eq_avg_vmu_utility",
		},
	}
	results := make([]*TrainResult, len(ns))
	err := defaultPool.Run(ctx, len(ns), func(ctx context.Context, i int) error {
		game, err := UniformGame(ns[i])
		if err != nil {
			return err
		}
		res, err := TrainAgentCtx(ctx, game, cfg)
		if err != nil {
			return fmt.Errorf("experiments: VMU sweep at N=%d: %w", ns[i], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		eq := results[i].OracleOutcome
		drl := results[i].EvalOutcome
		fig3c.AddRow(float64(n), drl.Price, eq.Price, drl.MSPUtility, eq.MSPUtility)
		fig3d.AddRow(float64(n),
			drl.TotalBandwidth/float64(n)*BandwidthDisplayScale,
			eq.TotalBandwidth/float64(n)*BandwidthDisplayScale,
			mathx.Mean(drl.VMUUtilities),
			mathx.Mean(eq.VMUUtilities),
		)
	}
	return &VMUSweepResult{Fig3c: fig3c, Fig3d: fig3d}, nil
}

// UniformGame builds the Fig. 3(c)/(d) scenario: n identical VMUs with
// D=100 MB, α=5, C=5, pmax=50, Bmax=0.5 MHz.
func UniformGame(n int) (*stackelberg.Game, error) {
	vmus := make([]stackelberg.VMU, n)
	for i := range vmus {
		vmus[i] = stackelberg.VMU{ID: i, Alpha: 5, DataSize: aotm.FromMB(100)}
	}
	return stackelberg.NewGame(vmus, channel.DefaultParams(), 5, 50, 0.5)
}

// baselineUtilities returns the mean MSP utility of the greedy and random
// schemes over K-round episodes, averaged over baselineSeeds seeds.
func baselineUtilities(game *stackelberg.Game, rounds int) (greedy, random float64) {
	for seed := int64(0); seed < baselineSeeds; seed++ {
		g := baselines.NewGreedy(game.Cost, game.PMax, 0.1, seed)
		r := baselines.NewRandom(game.Cost, game.PMax, seed)
		greedy += baselines.RunEpisode(game, g, rounds).MeanUtility
		random += baselines.RunEpisode(game, r, rounds).MeanUtility
	}
	return greedy / baselineSeeds, random / baselineSeeds
}
