package experiments

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"vtmig/internal/nn"
	"vtmig/internal/stackelberg"
)

// resumeDRLCfg is the small fixed-seed training the resume tests run.
func resumeDRLCfg() DRLConfig {
	cfg := DefaultDRLConfig()
	cfg.Episodes = 4
	cfg.Rounds = 20
	cfg.HistoryLen = 3
	cfg.UpdateEvery = 10
	cfg.PPO.MiniBatch = 10
	cfg.Restarts = 1
	cfg.Seed = 31
	return cfg
}

// TestResumeAgentMatchesStraightTraining is the experiments-level rule-6
// pin: train half the budget, persist the checkpoint in its binary
// encoding, resume to the full budget, and compare against an
// uninterrupted run — final weights, evaluation price, and per-episode
// stats must match bit for bit, under serial and vectorized collection.
func TestResumeAgentMatchesStraightTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	game := stackelberg.DefaultGame()
	for _, tc := range []struct {
		name        string
		collectEnvs int
	}{
		{name: "serial", collectEnvs: 1},
		{name: "vec", collectEnvs: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := resumeDRLCfg()
			cfg.CollectEnvs = tc.collectEnvs

			straight, err := TrainAgent(game, cfg)
			if err != nil {
				t.Fatal(err)
			}

			half := cfg
			half.Episodes = cfg.Episodes / 2
			first, err := TrainAgent(game, half)
			if err != nil {
				t.Fatal(err)
			}
			if first.Checkpoint == nil || first.Checkpoint.Meta == nil {
				t.Fatal("TrainResult carries no full checkpoint")
			}
			if first.Checkpoint.Meta.Episodes != half.Episodes {
				t.Fatalf("checkpoint at %d episodes, want %d", first.Checkpoint.Meta.Episodes, half.Episodes)
			}

			// Persist in the binary encoding, as vtmig-train
			// -checkpoint/-resume do.
			var buf bytes.Buffer
			if err := first.Checkpoint.SaveBinary(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := nn.LoadCheckpoint(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}

			rest := cfg
			rest.Seed = 999 // ignored: the checkpoint pins the stream seed
			resumed, err := ResumeAgent(game, rest, loaded)
			if err != nil {
				t.Fatal(err)
			}

			if math.Float64bits(resumed.EvalPrice) != math.Float64bits(straight.EvalPrice) {
				t.Fatalf("resumed eval price %v, straight %v", resumed.EvalPrice, straight.EvalPrice)
			}
			sp, rp := straight.Agent.Params(), resumed.Agent.Params()
			for i := range sp {
				for j := range sp[i].Value {
					if math.Float64bits(sp[i].Value[j]) != math.Float64bits(rp[i].Value[j]) {
						t.Fatalf("param %q[%d]: %v vs %v", sp[i].Name, j, rp[i].Value[j], sp[i].Value[j])
					}
				}
			}
			if got, want := len(resumed.Episodes), cfg.Episodes-half.Episodes; got != want {
				t.Fatalf("resumed leg ran %d episodes, want %d", got, want)
			}
			tail := straight.Episodes[len(straight.Episodes)-len(resumed.Episodes):]
			for i := range tail {
				if math.Float64bits(tail[i].Return) != math.Float64bits(resumed.Episodes[i].Return) {
					t.Fatalf("episode %d return %v, straight %v", resumed.Episodes[i].Episode,
						resumed.Episodes[i].Return, tail[i].Return)
				}
			}
		})
	}
}

// TestResumeAgentRejectsMismatch pins the fingerprint and completeness
// checks.
func TestResumeAgentRejectsMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	game := stackelberg.DefaultGame()
	cfg := resumeDRLCfg()
	cfg.Episodes = 2
	res, err := TrainAgent(game, cfg)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("different-config", func(t *testing.T) {
		other := cfg
		other.Rounds = 25
		if _, err := ResumeAgent(game, other, res.Checkpoint); err == nil {
			t.Fatal("checkpoint resumed under a different configuration")
		}
	})
	t.Run("different-game", func(t *testing.T) {
		wider := *game
		wider.PMax *= 2 // same N ⇒ same observation layout, different dynamics
		if _, err := ResumeAgent(&wider, cfg, res.Checkpoint); err == nil {
			t.Fatal("checkpoint resumed on a different game")
		}
	})
	t.Run("weights-only", func(t *testing.T) {
		weightsOnly, err := nn.Snapshot(res.Agent.Params())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeAgent(game, cfg, weightsOnly); err == nil || !strings.Contains(err.Error(), "no optimizer ('O') section") {
			t.Fatalf("ResumeAgent of a weights-only checkpoint: %v, want the missing optimizer section named", err)
		}
	})
	t.Run("beyond-budget", func(t *testing.T) {
		shorter := cfg
		shorter.Episodes = 1
		if _, err := ResumeAgent(game, shorter, res.Checkpoint); err == nil {
			t.Fatal("checkpoint beyond the budget resumed")
		}
	})
	t.Run("throughput-knobs-excluded", func(t *testing.T) {
		knobs := cfg
		knobs.Restarts = 5
		if knobs.Fingerprint(game) != cfg.Fingerprint(game) {
			t.Fatal("Restarts changed the fingerprint")
		}
		eps := cfg
		eps.Episodes = 100
		if eps.Fingerprint(game) != cfg.Fingerprint(game) {
			t.Fatal("episode budget changed the fingerprint")
		}
		reward := cfg
		reward.UpdateEvery = 5
		if reward.Fingerprint(game) == cfg.Fingerprint(game) {
			t.Fatal("UpdateEvery did not change the fingerprint")
		}
	})
}

// TestWarmStartAgentFromCheckpoint pins the deployment warm-start path of
// vtmig-sim and vtmig-serve: a checkpoint restores the complete learner
// state (bit-identical weights), while a weights-only one and an
// architecture mismatch fail loudly.
func TestWarmStartAgentFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	game := stackelberg.DefaultGame()
	cfg := resumeDRLCfg()
	cfg.Episodes = 2
	res, err := TrainAgent(game, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ppoCfg := cfg.PPO
	ppoCfg.Seed = cfg.Seed

	agent, err := WarmStartAgent(game, cfg.HistoryLen, ppoCfg, res.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	ap, rp := agent.Params(), res.Agent.Params()
	for i := range ap {
		for j := range ap[i].Value {
			if math.Float64bits(ap[i].Value[j]) != math.Float64bits(rp[i].Value[j]) {
				t.Fatalf("param %q[%d] differs", ap[i].Name, j)
			}
		}
	}

	weightsOnly, err := nn.Snapshot(res.Agent.Params())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WarmStartAgent(game, cfg.HistoryLen, ppoCfg, weightsOnly); err == nil {
		t.Fatal("weights-only checkpoint warm-started an agent")
	}
	if _, err := WarmStartAgent(game, cfg.HistoryLen+1, ppoCfg, res.Checkpoint); err == nil {
		t.Fatal("architecture mismatch warm start succeeded")
	}
}

// TestResolveWarmStartAdoptsOrMatches pins the adopt-or-match convention
// vtmig-sim's warm_start_file and vtmig-serve's -warm-start-file share: an
// unset history length or learning rate adopts the checkpoint's, a
// matching one is accepted, and a conflicting one is refused by name.
func TestResolveWarmStartAdoptsOrMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	game := stackelberg.DefaultGame()
	cfg := resumeDRLCfg()
	cfg.Episodes = 2
	cfg.PPO.LR = 5e-4 // differs from the default every caller passes in
	res, err := TrainAgent(game, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.bin")
	if err := res.Checkpoint.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	ppo := DefaultDRLConfig().PPO
	for _, c := range []struct {
		name    string
		history int
		lr      float64
		refused string // "" when the resolution succeeds
	}{
		{"unset-adopts", 0, 0, ""},
		{"matching", cfg.HistoryLen, cfg.PPO.LR, ""},
		{"history-conflict", cfg.HistoryLen + 1, 0, "history_len 4 conflicts"},
		{"lr-conflict", 0, 1e-3, "lr 0.001 conflicts"},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := ResolveWarmStart(path, game, ppo, c.history, c.lr)
			if c.refused != "" {
				if err == nil || !strings.Contains(err.Error(), c.refused) {
					t.Fatalf("ResolveWarmStart: %v, want an error containing %q", err, c.refused)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.HistoryLen != cfg.HistoryLen || got.PPO.LR != cfg.PPO.LR {
				t.Fatalf("resolved history %d lr %g, want the checkpoint's %d and %g", got.HistoryLen, got.PPO.LR, cfg.HistoryLen, cfg.PPO.LR)
			}
		})
	}
}
