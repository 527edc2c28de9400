package pomdp

import (
	"testing"

	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// TestFig2aInnerLoopAllocationFree locks in the zero-allocation steady
// state of the full Fig. 2(a) training inner loop on the real game
// environment: action selection, the Stackelberg follower response inside
// Step (via the environment's EvalScratch), rollout collection, GAE, and
// the PPO optimization phase. Before the destination-passing Evaluate
// path, every Step paid for fresh equilibrium-report slices.
func TestFig2aInnerLoopAllocationFree(t *testing.T) {
	env, err := NewGameEnv(Config{
		Game:       stackelberg.DefaultGame(),
		HistoryLen: 4,
		Rounds:     100,
		Reward:     RewardBinary,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := rl.DefaultPPOConfig()
	lo, hi := env.ActionBounds()
	agent := rl.NewPPO(env.ObsDim(), env.ActDim(), lo, hi, cfg)
	buf := rl.NewRollout(env.Rounds())

	// episode replays Algorithm 1's per-episode body: K rounds with an
	// optimization phase every |I| rounds.
	episode := func() {
		buf.Reset()
		obs := env.Reset()
		sinceUpdate := 0
		for k := 0; k < env.Rounds(); k++ {
			raw, envAct, logP, value, _ := agent.SelectActionWithMean(obs)
			next, reward, done := env.Step(envAct)
			terminal := done || k == env.Rounds()-1
			buf.Add(obs, raw, logP, reward, value, terminal)
			obs = next
			sinceUpdate++
			if sinceUpdate >= 20 || terminal {
				bootstrap := 0.0
				if !terminal {
					bootstrap = agent.Value(obs)
				}
				buf.ComputeGAE(cfg.Gamma, cfg.Lambda, bootstrap)
				agent.Update(buf)
				sinceUpdate = 0
			}
			if done {
				break
			}
		}
	}
	episode() // warm-up: grows env scratch, arenas and minibatch scratch
	if n := testing.AllocsPerRun(3, episode); n != 0 {
		t.Errorf("Fig2a inner loop allocates %v times per episode, want 0 in steady state", n)
	}
}
