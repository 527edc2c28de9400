package pomdp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// TestVecEnvInstanceZeroMatchesClassic pins that instance 0 of a
// vectorized environment keeps the base seed: its episode stream is
// bit-identical to the classic single environment's.
func TestVecEnvInstanceZeroMatchesClassic(t *testing.T) {
	cfg := Config{
		Game:       stackelberg.DefaultGame(),
		HistoryLen: 4,
		Rounds:     20,
		Reward:     RewardBinary,
		Seed:       7,
	}
	vec, err := NewVecEnv(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	classic, err := NewGameEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v0 := vec.EnvAt(0)
	a, b := classic.Reset(), v0.Reset()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("initial obs element %d: %v vs %v", i, a[i], b[i])
		}
	}
	act := []float64{12.5}
	for k := 0; k < 20; k++ {
		ao, ar, ad := classic.Step(act)
		bo, br, bd := v0.Step(act)
		if ar != br || ad != bd {
			t.Fatalf("round %d: reward/done (%v, %v) vs (%v, %v)", k, ar, ad, br, bd)
		}
		for i := range ao {
			if math.Float64bits(ao[i]) != math.Float64bits(bo[i]) {
				t.Fatalf("round %d obs element %d: %v vs %v", k, i, ao[i], bo[i])
			}
		}
	}
}

// TestVecEnvInstancesIndependentlySeeded checks that distinct instances
// start from distinct initial histories.
func TestVecEnvInstancesIndependentlySeeded(t *testing.T) {
	cfg := Config{
		Game:       stackelberg.DefaultGame(),
		HistoryLen: 4,
		Rounds:     10,
		Reward:     RewardBinary,
		Seed:       1,
	}
	vec, err := NewVecEnv(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := append([]float64(nil), vec.EnvAt(0).Reset()...)
	b := vec.EnvAt(1).Reset()
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("instances 0 and 1 produced identical initial observations")
	}
	if VecSeed(1, 0) != 1 {
		t.Fatalf("VecSeed(1, 0) = %d, want 1", VecSeed(1, 0))
	}
	if VecSeed(1, 1) == VecSeed(1, 0) {
		t.Fatal("VecSeed collision between instances")
	}
}

// TestNewVecEnvErrors propagates configuration errors.
func TestNewVecEnvErrors(t *testing.T) {
	if _, err := NewVecEnv(Config{}, 2); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewVecEnv(Config{Game: stackelberg.DefaultGame(), HistoryLen: 4, Rounds: 10, Reward: RewardBinary}, 0); err == nil {
		t.Fatal("zero instances accepted")
	}
}

// trainVec runs a short vectorized training on the real POMDP and returns
// the agent and per-episode returns.
func trainVec(t *testing.T, game *stackelberg.Game, seed int64, envs int) (*rl.PPO, []float64) {
	t.Helper()
	vec, err := NewVecEnv(Config{
		Game:       game,
		HistoryLen: 3,
		Rounds:     30,
		Reward:     RewardBinary,
		Seed:       seed,
	}, envs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rl.DefaultPPOConfig()
	cfg.Seed = seed
	cfg.MiniBatch = 10
	lo, hi := vec.ActionBounds()
	agent := rl.NewPPO(vec.ObsDim(), vec.ActDim(), lo, hi, cfg)
	trainer := rl.NewVecTrainer(vec, agent, rl.TrainerConfig{
		Episodes:         4,
		RoundsPerEpisode: 30,
		UpdateEvery:      10,
	})
	stats := trainer.Run()
	returns := make([]float64, len(stats))
	for i, s := range stats {
		returns[i] = s.Return
	}
	return agent, returns
}

// TestVecCollectTrainingBitIdenticalOnRandomGames pins same-seed
// reproducibility of vectorized training on the real POMDP: on
// randomized games, a 2-env vectorized run repeated with the same seed
// reproduces its weights and episode returns bit for bit.
func TestVecCollectTrainingBitIdenticalOnRandomGames(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 4; trial++ {
		game := randomGame(t, rng)
		seed := int64(2000 + trial)
		a, aRet := trainVec(t, game, seed, 2)
		b, bRet := trainVec(t, game, seed, 2)
		requireSameTraining(t, fmt.Sprintf("trial %d (N=%d)", trial, game.N()), a, aRet, b, bRet)
	}
}
