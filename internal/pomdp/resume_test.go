package pomdp

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"vtmig/internal/nn"
	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// resumeEnvCfg is the small fixed-seed environment the resume tests run.
func resumeEnvCfg(seed int64) Config {
	return Config{
		Game:       stackelberg.DefaultGame(),
		HistoryLen: 3,
		Rounds:     20,
		Reward:     RewardBinary,
		Seed:       seed,
	}
}

// TestGameEnvSnapshotResume pins the environment half of contract rule 6:
// a fresh GameEnv restored from an episode-boundary snapshot continues
// the original's observation/reward stream bit for bit — including the
// running-best reference of the binary reward, which persists across
// episodes.
func TestGameEnvSnapshotResume(t *testing.T) {
	orig, err := NewGameEnv(resumeEnvCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	// Drive two full episodes with a deterministic action sweep so the
	// best tracker accumulates real state.
	price := func(k int) []float64 { return []float64{5 + float64(k%40)} }
	for ep := 0; ep < 2; ep++ {
		orig.Reset()
		for k := 0; ; k++ {
			if _, _, done := orig.Step(price(k)); done {
				break
			}
		}
	}

	st := orig.EnvSnapshot()
	if !st.BestSet {
		t.Fatal("snapshot carries no best utility after two episodes")
	}
	if st.RNG.Seed != 7 || st.RNG.Calls == 0 {
		t.Fatalf("snapshot RNG %+v", st.RNG)
	}

	resumed, err := NewGameEnv(resumeEnvCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.EnvRestore(st); err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.BestUtility(), orig.BestUtility(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("restored best %v, want %v", got, want)
	}

	// Continue both streams in lockstep: identical observations, rewards,
	// and termination.
	for ep := 0; ep < 2; ep++ {
		a, b := orig.Reset(), resumed.Reset()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("episode %d reset obs[%d]: %v vs %v", ep, i, a[i], b[i])
			}
		}
		for k := 0; ; k++ {
			ao, ar, ad := orig.Step(price(k + 3))
			bo, br, bd := resumed.Step(price(k + 3))
			if math.Float64bits(ar) != math.Float64bits(br) || ad != bd {
				t.Fatalf("episode %d round %d: reward/done (%v,%v) vs (%v,%v)", ep, k, ar, ad, br, bd)
			}
			for i := range ao {
				if math.Float64bits(ao[i]) != math.Float64bits(bo[i]) {
					t.Fatalf("episode %d round %d obs[%d] diverged", ep, k, i)
				}
			}
			if ad {
				break
			}
		}
	}
}

// TestGameEnvRestoreSeedMismatch pins the stream-identity check.
func TestGameEnvRestoreSeedMismatch(t *testing.T) {
	env, err := NewGameEnv(resumeEnvCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := env.EnvRestore(nn.EnvState{RNG: nn.RNGState{Seed: 4}}); err == nil {
		t.Fatal("restore with mismatched seed accepted")
	}
}

// TestGameEnvTrainerResumeBitIdentity is the end-to-end rule-6 pin on the
// REAL environment: training the paper's POMDP K episodes, snapshotting
// via the trainer, restoring into fresh envs, and training K more equals
// training 2K straight — under serial and vectorized collection.
func TestGameEnvTrainerResumeBitIdentity(t *testing.T) {
	for _, envs := range []int{1, 2} {
		t.Run(map[int]string{1: "serial", 2: "vec"}[envs], func(t *testing.T) {
			const seed = 11
			tcfg := rl.TrainerConfig{Episodes: 4, RoundsPerEpisode: 20, UpdateEvery: 10}
			pcfg := rl.DefaultPPOConfig()
			pcfg.Seed = seed
			pcfg.MiniBatch = 10

			build := func() (*rl.EnvSlice, *rl.PPO) {
				vec, err := NewVecEnv(resumeEnvCfg(seed), envs)
				if err != nil {
					t.Fatal(err)
				}
				lo, hi := vec.ActionBounds()
				return vec, rl.NewPPO(vec.ObsDim(), vec.ActDim(), lo, hi, pcfg)
			}

			refVec, refAgent := build()
			rl.NewVecTrainer(refVec, refAgent, tcfg).Run()

			// Split run: 2 episodes, snapshot (binary round trip), resume.
			firstVec, firstAgent := build()
			firstCfg := tcfg
			firstCfg.Episodes = 2
			tr1 := rl.NewVecTrainer(firstVec, firstAgent, firstCfg)
			tr1.Run()
			ck, err := tr1.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ck.SaveBinary(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := nn.LoadCheckpoint(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}

			resVec, resAgent := build()
			tr2 := rl.NewVecTrainer(resVec, resAgent, tcfg)
			if err := tr2.Restore(loaded); err != nil {
				t.Fatal(err)
			}
			tr2.Run()

			refP, resP := refAgent.Params(), resAgent.Params()
			for i := range refP {
				for j := range refP[i].Value {
					if math.Float64bits(refP[i].Value[j]) != math.Float64bits(resP[i].Value[j]) {
						t.Fatalf("param %q[%d]: %v vs %v", refP[i].Name, j, resP[i].Value[j], refP[i].Value[j])
					}
				}
			}
			// Environment streams must have landed in the same place.
			for e := 0; e < envs; e++ {
				a := refVec.EnvAt(e).(*GameEnv).EnvSnapshot()
				b := resVec.EnvAt(e).(*GameEnv).EnvSnapshot()
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("env %d stream state %+v, want %+v", e, b, a)
				}
			}
		})
	}
}
