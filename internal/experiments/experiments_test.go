package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"vtmig/internal/pomdp"
	"vtmig/internal/stackelberg"
)

// quickCfg is a fast DRL configuration for tests: enough training to show
// learning, small enough to keep the suite quick.
func quickCfg() DRLConfig {
	cfg := DefaultDRLConfig()
	cfg.Episodes = 30
	cfg.Rounds = 60
	return cfg
}

func TestTableAddRowAndString(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"a", "b"}}
	tab.AddRow(1, 2)
	tab.AddRow(3, 4)
	s := tab.String()
	if !strings.Contains(s, "== t ==") || !strings.Contains(s, "a") {
		t.Errorf("String output missing title/header: %q", s)
	}
	if len(tab.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(tab.Rows))
	}
}

func TestTableAddRowWidthPanics(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("short row did not panic")
		}
	}()
	tab.AddRow(1)
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"x", "y"}}
	tab.AddRow(1, 2.5)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	want := "x,y\n1,2.5\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestSeriesTailAndAppend(t *testing.T) {
	s := &Series{Name: "s"}
	for i := 0; i < 5; i++ {
		s.Append(float64(i), float64(i*10))
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Tail(2); got != 35 {
		t.Errorf("Tail(2) = %v, want 35", got)
	}
	if got := s.Tail(100); got != 20 {
		t.Errorf("Tail(100) = %v, want mean 20", got)
	}
	empty := &Series{}
	if got := empty.Tail(3); got != 0 {
		t.Errorf("empty Tail = %v, want 0", got)
	}
}

func TestSeriesTableLayout(t *testing.T) {
	a := &Series{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}}
	b := &Series{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}}
	tab := SeriesTable("joint", "x", a, b)
	if len(tab.Columns) != 3 || tab.Columns[2] != "b" {
		t.Fatalf("columns = %v", tab.Columns)
	}
	if tab.Rows[1][2] != 40 {
		t.Errorf("cell = %v, want 40", tab.Rows[1][2])
	}
}

func TestSeriesTableMismatchPanics(t *testing.T) {
	a := &Series{Name: "a", X: []float64{1}, Y: []float64{10}}
	b := &Series{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched series did not panic")
		}
	}()
	SeriesTable("joint", "x", a, b)
}

func TestTrainAgentLearnsTowardEquilibrium(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	game := stackelberg.DefaultGame()
	cfg := quickCfg()
	res, err := TrainAgent(game, cfg)
	if err != nil {
		t.Fatalf("TrainAgent: %v", err)
	}
	if len(res.Episodes) != cfg.Episodes {
		t.Fatalf("episodes = %d, want %d", len(res.Episodes), cfg.Episodes)
	}
	// Even a short run must beat the worst case by a wide margin: regret
	// below 50% of the oracle utility.
	if res.EvalOutcome.MSPUtility < 0.5*res.OracleOutcome.MSPUtility {
		t.Errorf("eval Us = %v, oracle %v — learning is broken",
			res.EvalOutcome.MSPUtility, res.OracleOutcome.MSPUtility)
	}
	if res.EvalPrice < game.Cost || res.EvalPrice > game.PMax {
		t.Errorf("eval price %v outside [C, pmax]", res.EvalPrice)
	}
}

func TestRunFig2ProducesBothCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	cfg := quickCfg()
	res, err := RunFig2Ctx(context.Background(), stackelberg.DefaultGame(), cfg)
	if err != nil {
		t.Fatalf("RunFig2Ctx: %v", err)
	}
	if res.Return.Len() != cfg.Episodes || res.Utility.Len() != cfg.Episodes {
		t.Fatalf("curve lengths = %d/%d, want %d", res.Return.Len(), res.Utility.Len(), cfg.Episodes)
	}
	if res.OracleUtility <= 0 {
		t.Error("oracle utility must be positive")
	}
	tables := res.Tables()
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) != cfg.Episodes {
			t.Errorf("%s rows = %d, want %d", tab.Title, len(tab.Rows), cfg.Episodes)
		}
	}
}

func TestRunCostSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	cfg := quickCfg()
	res, err := RunCostSweepCtx(context.Background(), []float64{5, 9}, cfg)
	if err != nil {
		t.Fatalf("RunCostSweepCtx: %v", err)
	}
	if len(res.Fig3a.Rows) != 2 || len(res.Fig3b.Rows) != 2 {
		t.Fatalf("row counts = %d/%d, want 2/2", len(res.Fig3a.Rows), len(res.Fig3b.Rows))
	}
	// Equilibrium columns must reproduce the paper: price rises with cost,
	// bandwidth falls.
	eqPriceC5, eqPriceC9 := res.Fig3a.Rows[0][2], res.Fig3a.Rows[1][2]
	if !(eqPriceC5 < eqPriceC9) {
		t.Errorf("eq price must rise with cost: %v vs %v", eqPriceC5, eqPriceC9)
	}
	eqBwC5, eqBwC9 := res.Fig3b.Rows[0][2], res.Fig3b.Rows[1][2]
	if !(eqBwC5 > eqBwC9) {
		t.Errorf("eq bandwidth must fall with cost: %v vs %v", eqBwC5, eqBwC9)
	}
	// DRL utility must beat the random baseline at every cost.
	for i, row := range res.Fig3a.Rows {
		drlUs, randomUs := row[3], row[6]
		if drlUs <= randomUs {
			t.Errorf("row %d: DRL Us %v must beat random %v", i, drlUs, randomUs)
		}
	}
}

func TestRunVMUSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	cfg := quickCfg()
	res, err := RunVMUSweepCtx(context.Background(), []int{2, 6}, cfg)
	if err != nil {
		t.Fatalf("RunVMUSweepCtx: %v", err)
	}
	// Equilibrium shape: Us grows with N; average VMU utility falls.
	eqUsN2, eqUsN6 := res.Fig3c.Rows[0][4], res.Fig3c.Rows[1][4]
	if !(eqUsN6 > eqUsN2) {
		t.Errorf("eq Us must grow with N: %v vs %v", eqUsN2, eqUsN6)
	}
	avgUtilN2, avgUtilN6 := res.Fig3d.Rows[0][4], res.Fig3d.Rows[1][4]
	if !(avgUtilN6 < avgUtilN2) {
		t.Errorf("avg VMU utility must fall with N: %v vs %v", avgUtilN2, avgUtilN6)
	}
}

func TestUniformGame(t *testing.T) {
	g, err := UniformGame(3)
	if err != nil {
		t.Fatalf("UniformGame: %v", err)
	}
	if g.N() != 3 {
		t.Errorf("N = %d, want 3", g.N())
	}
	for _, v := range g.VMUs {
		if v.Alpha != 5 || v.DataSize != 1 {
			t.Errorf("VMU %d = %+v, want alpha 5, data 1", v.ID, v)
		}
	}
}

func TestRunSolverAblationAgreement(t *testing.T) {
	tab := RunSolverAblation()
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tab.Rows {
		if diff := row[3]; diff > 0.01 {
			t.Errorf("price %v: closed-form and IBR differ by %v (×10kHz)", row[0], diff)
		}
	}
}

func TestRunHistoryAblationValidation(t *testing.T) {
	if _, err := RunHistoryAblationCtx(context.Background(), []int{0}, quickCfg()); err == nil {
		t.Error("L=0 must error")
	}
}

func TestRunRewardAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	cfg := quickCfg()
	cfg.Episodes = 15
	tab, err := RunRewardAblationCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunRewardAblationCtx: %v", err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (binary, shaped)", len(tab.Rows))
	}
}

func TestDefaultDRLConfigMatchesPaperStructure(t *testing.T) {
	cfg := DefaultDRLConfig()
	if cfg.HistoryLen != 4 {
		t.Errorf("L = %d, want 4", cfg.HistoryLen)
	}
	if cfg.Rounds != 100 {
		t.Errorf("K = %d, want 100", cfg.Rounds)
	}
	if cfg.UpdateEvery != 20 {
		t.Errorf("|I| = %d, want 20", cfg.UpdateEvery)
	}
	if cfg.PPO.Epochs != 10 {
		t.Errorf("M = %d, want 10", cfg.PPO.Epochs)
	}
	if cfg.Reward != pomdp.RewardBinary {
		t.Errorf("reward = %v, want binary", cfg.Reward)
	}
	if len(cfg.PPO.Hidden) != 2 || cfg.PPO.Hidden[0] != 64 || cfg.PPO.Hidden[1] != 64 {
		t.Errorf("hidden = %v, want [64 64]", cfg.PPO.Hidden)
	}
}

func TestRunMultiMSPAblation(t *testing.T) {
	tab, err := RunMultiMSPAblation([]int{1, 2})
	if err != nil {
		t.Fatalf("RunMultiMSPAblation: %v", err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	monoPrice, duoPrice := tab.Rows[0][1], tab.Rows[1][1]
	if duoPrice >= monoPrice {
		t.Errorf("duopoly price %v must undercut monopoly %v", duoPrice, monoPrice)
	}
	monoVMU, duoVMU := tab.Rows[0][3], tab.Rows[1][3]
	if duoVMU <= monoVMU {
		t.Errorf("duopoly VMU utility %v must exceed monopoly %v", duoVMU, monoVMU)
	}
}

func TestRunMultiMSPAblationValidation(t *testing.T) {
	if _, err := RunMultiMSPAblation([]int{0}); err == nil {
		t.Error("provider count 0 must error")
	}
}

func TestRunBaselineComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	cfg := quickCfg()
	tab, err := RunBaselineComparisonCtx(context.Background(), stackelberg.DefaultGame(), cfg, 3)
	if err != nil {
		t.Fatalf("RunBaselineComparisonCtx: %v", err)
	}
	if len(tab.Rows) != len(BaselineSchemes) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(BaselineSchemes))
	}
	// Row order follows BaselineSchemes; oracle (row 0) must dominate
	// random (last row) in mean utility, and identification must match
	// the equilibrium nearly exactly in best utility.
	oracleMean := tab.Rows[0][1]
	randomMean := tab.Rows[len(tab.Rows)-1][1]
	if oracleMean <= randomMean {
		t.Errorf("oracle mean %v must beat random %v", oracleMean, randomMean)
	}
	identBest := tab.Rows[2][2]
	eq := tab.Rows[2][3]
	if identBest < 0.999*eq {
		t.Errorf("identification best %v must reach equilibrium %v", identBest, eq)
	}
}

func TestRunBaselineComparisonValidation(t *testing.T) {
	if _, err := RunBaselineComparisonCtx(context.Background(), stackelberg.DefaultGame(), quickCfg(), 0); err == nil {
		t.Error("seeds=0 must error")
	}
}

func TestRunSeedStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	cfg := quickCfg()
	study, err := RunSeedStudyCtx(context.Background(), stackelberg.DefaultGame(), cfg, 3)
	if err != nil {
		t.Fatalf("RunSeedStudyCtx: %v", err)
	}
	if len(study.Prices) != 3 || len(study.Utilities) != 3 {
		t.Fatalf("sizes = %d/%d, want 3/3", len(study.Prices), len(study.Utilities))
	}
	for s, u := range study.Utilities {
		if u <= 0 || u > study.OracleUtility+1e-9 {
			t.Errorf("seed %d utility %v outside (0, oracle=%v]", s, u, study.OracleUtility)
		}
	}
	tab := study.Table()
	if len(tab.Rows) != 3 {
		t.Fatalf("table rows = %d, want 3", len(tab.Rows))
	}
	// Mean utility row must sit between min and max.
	if tab.Rows[1][1] < tab.Rows[1][4] || tab.Rows[1][1] > tab.Rows[1][5] {
		t.Errorf("mean %v outside [min %v, max %v]", tab.Rows[1][1], tab.Rows[1][4], tab.Rows[1][5])
	}
}

func TestRunSeedStudyValidation(t *testing.T) {
	if _, err := RunSeedStudyCtx(context.Background(), stackelberg.DefaultGame(), quickCfg(), 1); err == nil {
		t.Error("seeds=1 must error")
	}
}
