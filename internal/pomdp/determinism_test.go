package pomdp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vtmig/internal/channel"
	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// randomGame draws a valid randomized Stackelberg game: 1–5 followers
// with random immersion coefficients and data sizes, random cost, and a
// randomly slack or binding capacity.
func randomGame(t *testing.T, rng *rand.Rand) *stackelberg.Game {
	t.Helper()
	n := 1 + rng.Intn(5)
	vmus := make([]stackelberg.VMU, n)
	for i := range vmus {
		vmus[i] = stackelberg.VMU{
			ID:       i,
			Alpha:    5 + rng.Float64()*15,
			DataSize: 0.5 + rng.Float64()*2.5,
		}
	}
	bmax := 0.0
	if rng.Intn(2) == 0 {
		bmax = 0.2 + rng.Float64()*0.8
	}
	g, err := stackelberg.NewGame(vmus, channel.DefaultParams(), 4+rng.Float64()*4, 50, bmax)
	if err != nil {
		t.Fatalf("randomized game invalid: %v", err)
	}
	return g
}

// trainBriefly runs a short end-to-end training (environment, trainer,
// PPO) and returns the agent and per-episode returns.
func trainBriefly(t *testing.T, game *stackelberg.Game, seed int64) (*rl.PPO, []float64) {
	t.Helper()
	env, err := NewGameEnv(Config{
		Game:       game,
		HistoryLen: 3,
		Rounds:     40,
		Reward:     RewardBinary,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := rl.DefaultPPOConfig()
	cfg.Seed = seed
	cfg.MiniBatch = 10
	lo, hi := env.ActionBounds()
	agent := rl.NewPPO(env.ObsDim(), env.ActDim(), lo, hi, cfg)
	trainer := rl.NewTrainer(env, agent, rl.TrainerConfig{
		Episodes:         2,
		RoundsPerEpisode: 40,
		UpdateEvery:      10,
	})
	stats := trainer.Run()
	returns := make([]float64, len(stats))
	for i, s := range stats {
		returns[i] = s.Return
	}
	return agent, returns
}

// requireSameTraining fails unless two training runs produced the same
// episode returns and final weights, bit for bit.
func requireSameTraining(t *testing.T, label string, a *rl.PPO, aRet []float64, b *rl.PPO, bRet []float64) {
	t.Helper()
	for i := range aRet {
		if math.Float64bits(aRet[i]) != math.Float64bits(bRet[i]) {
			t.Fatalf("%s: episode %d return %v vs %v", label, i, aRet[i], bRet[i])
		}
	}
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j := range ap[i].Value {
			if math.Float64bits(ap[i].Value[j]) != math.Float64bits(bp[i].Value[j]) {
				t.Fatalf("%s: param %q element %d: %v vs %v", label, ap[i].Name, j, ap[i].Value[j], bp[i].Value[j])
			}
		}
	}
}

// TestTrainingBitIdenticalOnRandomGames pins same-seed reproducibility
// on the real POMDP: on randomized games, a full (short) training run
// repeated with the same seed reproduces its weights and episode returns
// bit for bit.
func TestTrainingBitIdenticalOnRandomGames(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		game := randomGame(t, rng)
		seed := int64(1000 + trial)
		a, aRet := trainBriefly(t, game, seed)
		b, bRet := trainBriefly(t, game, seed)
		requireSameTraining(t, fmt.Sprintf("trial %d (N=%d)", trial, game.N()), a, aRet, b, bRet)
	}
}
