package experiments

import (
	"context"
	"fmt"

	"vtmig/internal/pomdp"
	"vtmig/internal/scenario"
	"vtmig/internal/sim"
	"vtmig/internal/stackelberg"
)

// NonstationaryStudyConfig parameterizes the non-stationarity study: one
// offline-trained agent is deployed frozen and online-continual on a
// stationary scenario and on a non-stationary one, and the online
// learner's margin over its frozen twin is compared across the two
// workloads. The study answers the question the scenario layer exists to
// pose: does continual learning pay off more when the workload actually
// drifts (churn, outages, demand cycles) than when it is static?
type NonstationaryStudyConfig struct {
	// Static is the stationary reference scenario; nil selects a
	// short default-highway scenario. Its Pricer field is ignored.
	Static *scenario.Scenario
	// NonStationary is the drifting scenario; nil selects a default
	// grid+churn+outages+demand workload. Its Pricer field is ignored.
	NonStationary *scenario.Scenario
	// Game is the offline training game and the online pricers' reference
	// game. Nil selects stackelberg.DefaultGame().
	Game *stackelberg.Game
	// DRL is the offline training configuration. The study trains it
	// exactly once and forks every arm's agent from the result.
	DRL DRLConfig
	// UpdateEvery is the online arms' optimization cadence in live
	// rounds. Zero selects DRL.UpdateEvery.
	UpdateEvery int
	// Reward is the online arms' live learning signal (zero:
	// pomdp.RewardShaped).
	Reward pomdp.RewardKind
}

// NonstationaryArm is one (scenario, pricer) cell of the study.
type NonstationaryArm struct {
	// Scenario is "static" or "nonstationary".
	Scenario string
	// Pricer is "frozen-drl" or "online-warm".
	Pricer string
	// Report is the cell's full simulation report.
	Report sim.Report
	// LeaderUtility is MSPRevenue / PricingRounds, the study metric.
	LeaderUtility float64
	// Updates counts the online optimization phases (zero when frozen).
	Updates int
}

// NonstationaryStudy is the result of RunNonstationaryStudyCtx.
type NonstationaryStudy struct {
	// Arms are the four cells in fixed order: static/frozen-drl,
	// static/online-warm, nonstationary/frozen-drl,
	// nonstationary/online-warm.
	Arms []NonstationaryArm
	// StaticMargin and NonstationaryMargin are the online arm's leader
	// utility minus the frozen arm's, per scenario.
	StaticMargin        float64
	NonstationaryMargin float64
	// MarginGain is NonstationaryMargin − StaticMargin: positive means
	// online adaptation is worth more under workload drift than it is on
	// the stationary reference.
	MarginGain float64
}

// Arm returns the named cell, or nil.
func (s *NonstationaryStudy) Arm(scenarioName, pricer string) *NonstationaryArm {
	for i := range s.Arms {
		if s.Arms[i].Scenario == scenarioName && s.Arms[i].Pricer == pricer {
			return &s.Arms[i]
		}
	}
	return nil
}

// Table lays the study out as one row per cell.
func (s *NonstationaryStudy) Table() *Table {
	t := &Table{
		Title: "nonstationary-study",
		Columns: []string{"arm", "leader_utility", "revenue", "pricing_rounds", "migrations",
			"mean_aotm", "mean_vmu_utility", "updates"},
	}
	for i, a := range s.Arms {
		t.AddRow(float64(i), a.LeaderUtility, a.Report.MSPRevenue,
			float64(a.Report.PricingRounds), float64(len(a.Report.Migrations)),
			a.Report.MeanAoTM, a.Report.MeanVMUUtility, float64(a.Updates))
	}
	return t
}

// DefaultNonstationaryStudyConfig returns the study over a short
// stationary highway and a grid+churn+outages+demand workload — in-code
// equivalents of the committed static-highway and nonstationary scenario
// files, shortened for fast runs — with a small offline budget.
func DefaultNonstationaryStudyConfig() NonstationaryStudyConfig {
	drl := DefaultDRLConfig()
	drl.Episodes = 20
	drl.Restarts = 1
	return NonstationaryStudyConfig{
		Static: &scenario.Scenario{Name: "static", Seed: 123, DurationS: 300},
		NonStationary: &scenario.Scenario{
			Name: "nonstationary", Seed: 123, DurationS: 300,
			Mobility:  &scenario.Mobility{Kind: scenario.KindGrid, Rows: 3, Cols: 3, SpacingM: 500, RadiusM: 350},
			Churn:     &scenario.Churn{ArrivalRatePerS: 0.04, MeanDwellS: 150, MaxVehicles: 10},
			OutageGen: &scenario.OutageGen{Count: 3, MeanDurationS: 60},
			Demand:    &scenario.Demand{PeriodS: 150, DayFraction: 0.5, NightSpeedFactor: 0.6, NightSensingFactor: 1.5},
		},
		DRL: drl,
	}
}

// RunNonstationaryStudyCtx runs the 2×2 frozen-vs-online,
// static-vs-drift comparison. The four cells fan out through the shared
// worker pool (results assembled in fixed order, determinism contract
// rule 2) and training stops at the next episode boundary when ctx is
// cancelled.
func RunNonstationaryStudyCtx(ctx context.Context, cfg NonstationaryStudyConfig) (*NonstationaryStudy, error) {
	def := DefaultNonstationaryStudyConfig()
	if cfg.Static == nil {
		cfg.Static = def.Static
	}
	if cfg.NonStationary == nil {
		cfg.NonStationary = def.NonStationary
	}
	game := cfg.Game
	if game == nil {
		game = stackelberg.DefaultGame()
	}
	updateEvery := cfg.UpdateEvery
	if updateEvery == 0 {
		updateEvery = cfg.DRL.UpdateEvery
	}

	// Compile both workloads up front: a scenario that does not compile
	// should fail before any training is spent on it.
	scenarios := []struct {
		name string
		s    *scenario.Scenario
	}{{"static", cfg.Static}, {"nonstationary", cfg.NonStationary}}
	compiled := make([]sim.Config, len(scenarios))
	for i, sc := range scenarios {
		c, err := sc.s.CompileConfig()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s scenario: %w", sc.name, err)
		}
		compiled[i] = c
	}

	// Train the shared offline agent exactly once, then fork one
	// independent learner per cell so no agent instance is shared between
	// concurrently running deployments.
	res, err := TrainAgentCtx(ctx, game, cfg.DRL)
	if err != nil {
		return nil, fmt.Errorf("experiments: training the study's shared agent: %w", err)
	}

	type cell struct {
		scenario string
		pricer   string
		cfg      sim.Config
	}
	cells := make([]cell, 0, 4)
	for i, sc := range scenarios {
		cells = append(cells,
			cell{sc.name, "frozen-drl", compiled[i]},
			cell{sc.name, "online-warm", compiled[i]},
		)
	}

	study := &NonstationaryStudy{Arms: make([]NonstationaryArm, len(cells))}
	err = defaultPool.Run(ctx, len(cells), func(ctx context.Context, i int) error {
		agent, err := res.Agent.Clone()
		if err != nil {
			return fmt.Errorf("experiments: forking the %s/%s agent: %w", cells[i].scenario, cells[i].pricer, err)
		}
		var pricer sim.Pricer
		switch cells[i].pricer {
		case "frozen-drl":
			pricer, err = frozenPricer(res.Env.Config(), agent)
		case "online-warm":
			pricer, err = sim.NewOnlinePricer(sim.OnlinePricerConfig{
				Game:        game,
				HistoryLen:  cfg.DRL.HistoryLen,
				Agent:       agent,
				UpdateEvery: updateEvery,
				Reward:      cfg.Reward,
				Seed:        cfg.DRL.Seed,
			})
		}
		if err != nil {
			return fmt.Errorf("experiments: building the %s/%s pricer: %w", cells[i].scenario, cells[i].pricer, err)
		}
		simCfg := cells[i].cfg
		simCfg.Pricer = pricer
		s, err := sim.New(simCfg)
		if err != nil {
			return fmt.Errorf("experiments: %s/%s simulator: %w", cells[i].scenario, cells[i].pricer, err)
		}
		rep := s.Run()
		arm := NonstationaryArm{Scenario: cells[i].scenario, Pricer: cells[i].pricer, Report: rep}
		if rep.PricingRounds > 0 {
			arm.LeaderUtility = rep.MSPRevenue / float64(rep.PricingRounds)
		}
		if op, ok := pricer.(*sim.OnlinePricer); ok {
			op.Flush() // close the trailing partial segment before reading the learner
			arm.Updates = op.Updates()
		}
		study.Arms[i] = arm
		return nil
	})
	if err != nil {
		return nil, err
	}
	study.StaticMargin = study.Arm("static", "online-warm").LeaderUtility -
		study.Arm("static", "frozen-drl").LeaderUtility
	study.NonstationaryMargin = study.Arm("nonstationary", "online-warm").LeaderUtility -
		study.Arm("nonstationary", "frozen-drl").LeaderUtility
	study.MarginGain = study.NonstationaryMargin - study.StaticMargin
	return study, nil
}
