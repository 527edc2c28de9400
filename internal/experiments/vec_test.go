package experiments

import (
	"math"
	"testing"

	"vtmig/internal/stackelberg"
)

// smallVecCfg returns a reduced training configuration with vectorized
// collection enabled.
func smallVecCfg() DRLConfig {
	cfg := DefaultDRLConfig()
	cfg.Episodes = 6
	cfg.Rounds = 30
	cfg.Restarts = 1
	cfg.CollectEnvs = 3
	return cfg
}

// TestTrainAgentVectorized checks the TrainAgent entry point with
// vectorized collection: training must complete, reproduce itself, and
// report the configured number of episodes.
func TestTrainAgentVectorized(t *testing.T) {
	game := stackelberg.DefaultGame()
	cfg := smallVecCfg()
	a, err := TrainAgent(game, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Episodes) != cfg.Episodes {
		t.Fatalf("trained %d episodes, want %d", len(a.Episodes), cfg.Episodes)
	}
	b, err := TrainAgent(game, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.EvalPrice) != math.Float64bits(b.EvalPrice) {
		t.Fatalf("vectorized training not reproducible: eval price %v vs %v", a.EvalPrice, b.EvalPrice)
	}
	for i := range a.Episodes {
		if math.Float64bits(a.Episodes[i].Return) != math.Float64bits(b.Episodes[i].Return) {
			t.Fatalf("episode %d return %v vs %v", i, a.Episodes[i].Return, b.Episodes[i].Return)
		}
	}
}
