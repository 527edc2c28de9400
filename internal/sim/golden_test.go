package sim

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vtmig/internal/pomdp"
	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// The golden tests pin the exact numeric sim.Report of every built-in
// pricer at a fixed seed — the simulator-level arm of the determinism
// contract: the same seed yields the same report, bit for bit, regardless
// of kernel batching or GOMAXPROCS.
// Regenerate after an intentional numeric change with
//
//	go test ./internal/sim -run Golden -update
//
// (or `make golden`, which regenerates the experiments goldens too).
var updateGolden = flag.Bool("update", false, "rewrite the golden files instead of comparing")

// goldenSimConfig is the fixed scenario every pricer golden runs.
func goldenSimConfig() Config {
	cfg := DefaultConfig()
	cfg.DurationS = 120
	cfg.Seed = 123
	return cfg
}

// goldenFrozenAgent trains the small fixed-seed agent deployed by the
// frozen-DRL and warm-started online goldens.
func goldenFrozenAgent(t *testing.T) (*rl.PPO, pomdp.Config) {
	t.Helper()
	envCfg := pomdp.Config{
		Game:       stackelberg.DefaultGame(),
		HistoryLen: 3,
		Rounds:     30,
		Reward:     pomdp.RewardBinary,
		Seed:       123,
	}
	vec, err := pomdp.NewVecEnv(envCfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := rl.DefaultPPOConfig()
	pcfg.Seed = 123
	pcfg.MiniBatch = 10
	lo, hi := vec.ActionBounds()
	agent := rl.NewPPO(vec.ObsDim(), vec.ActDim(), lo, hi, pcfg)
	rl.NewVecTrainer(vec, agent, rl.TrainerConfig{
		Episodes:         4,
		RoundsPerEpisode: 30,
		UpdateEvery:      10,
	}).Run()
	return agent, envCfg
}

// checkGoldenReport compares the serialized report (FormatGoldenReport)
// against testdata/<name>, or rewrites the file under -update.
func checkGoldenReport(t *testing.T, name string, rep Report) {
	t.Helper()
	got := FormatGoldenReport(rep)
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to record): %v", path, err)
	}
	if err := DiffGoldenReports(string(wantBytes), got, GoldenTol); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// runGoldenSim executes the fixed golden scenario with the given pricer.
func runGoldenSim(t *testing.T, pricer Pricer) Report {
	t.Helper()
	cfg := goldenSimConfig()
	cfg.Pricer = pricer
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

func TestGoldenReportOracle(t *testing.T) {
	checkGoldenReport(t, "report_oracle_golden.txt", runGoldenSim(t, NewOraclePricer()))
}

func TestGoldenReportFixed(t *testing.T) {
	checkGoldenReport(t, "report_fixed_golden.txt", runGoldenSim(t, NewFixedPricer(25)))
}

func TestGoldenReportRandom(t *testing.T) {
	checkGoldenReport(t, "report_random_golden.txt", runGoldenSim(t, NewRandomPricer(123)))
}

func TestGoldenReportDRL(t *testing.T) {
	if testing.Short() {
		t.Skip("training golden skipped in -short mode")
	}
	agent, envCfg := goldenFrozenAgent(t)
	beliefCfg := envCfg
	beliefCfg.Rounds = 1 << 20
	belief, err := pomdp.NewGameEnv(beliefCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenReport(t, "report_drl_golden.txt", runGoldenSim(t, NewDRLPricer(belief, agent)))
}

func TestGoldenReportOnline(t *testing.T) {
	if testing.Short() {
		t.Skip("training golden skipped in -short mode")
	}
	agent, envCfg := goldenFrozenAgent(t)
	pricer, err := NewOnlinePricer(OnlinePricerConfig{
		Game:        envCfg.Game,
		HistoryLen:  envCfg.HistoryLen,
		Agent:       agent,
		UpdateEvery: 10,
		Seed:        123,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenReport(t, "report_online_golden.txt", runGoldenSim(t, pricer))
}
