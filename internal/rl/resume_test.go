package rl

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vtmig/internal/nn"
)

// The tests in this file pin the sixth rule of the determinism contract:
// a full checkpoint (weights + Adam moments/step + policy RNG position +
// environment stream states + episode count) restores training
// bit-identically — train K episodes, snapshot, restore into freshly
// constructed envs/agent, train K more is the same run as training 2K
// straight, under any GOMAXPROCS.

// trainStraight trains a fresh agent for cfg.Episodes and returns it with
// its stats.
func trainStraight(envs int, tcfg TrainerConfig, pcfg PPOConfig) (*PPO, []EpisodeStats) {
	vec := newVecTestSlice(envs, 6, 17, tcfg.RoundsPerEpisode+3)
	agent := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
	return agent, NewVecTrainer(vec, agent, tcfg).Run()
}

// trainSplit trains to splitAt episodes, snapshots, round-trips the
// checkpoint through its binary encoding, restores into freshly built
// envs and agent, and trains to the full budget. It returns the resumed
// agent and the second-leg stats.
func trainSplit(t *testing.T, envs, splitAt int, tcfg TrainerConfig, pcfg PPOConfig) (*PPO, []EpisodeStats) {
	t.Helper()
	firstCfg := tcfg
	firstCfg.Episodes = splitAt
	vec1 := newVecTestSlice(envs, 6, 17, tcfg.RoundsPerEpisode+3)
	agent1 := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
	tr1 := NewVecTrainer(vec1, agent1, firstCfg)
	tr1.Fingerprint = "resume-test"
	tr1.Run()

	ck, err := tr1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var buf bytes.Buffer
	if err := ck.SaveBinary(&buf); err != nil {
		t.Fatalf("SaveBinary: %v", err)
	}
	loaded, err := nn.LoadCheckpoint(buf.Bytes())
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}

	vec2 := newVecTestSlice(envs, 6, 17, tcfg.RoundsPerEpisode+3)
	agent2 := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
	tr2 := NewVecTrainer(vec2, agent2, tcfg)
	if err := tr2.Restore(loaded); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if tr2.Completed() != splitAt || tr2.Fingerprint != "resume-test" {
		t.Fatalf("resumed trainer at %d episodes (fingerprint %q), want %d (resume-test)",
			tr2.Completed(), tr2.Fingerprint, splitAt)
	}
	return agent2, tr2.Run()
}

// TestResumeBitIdentity is the resume-equality table: snapshot-at-K-then-
// train-K must equal train-2K for every combination of environment count,
// split point, and GOMAXPROCS.
func TestResumeBitIdentity(t *testing.T) {
	const rounds, updateEvery = 20, 10
	cells := []struct {
		name                 string
		envs, splitAt, total int
		gomaxprocs           int
	}{
		{name: "serial", envs: 1, splitAt: 3, total: 6, gomaxprocs: 1},
		{name: "odd-split", envs: 1, splitAt: 2, total: 7, gomaxprocs: 2},
		{name: "vec", envs: 2, splitAt: 2, total: 6, gomaxprocs: 2},
		{name: "vec-3env", envs: 3, splitAt: 3, total: 6, gomaxprocs: 4},
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(tc.gomaxprocs)
			defer runtime.GOMAXPROCS(prev)

			pcfg := DefaultPPOConfig()
			pcfg.Seed = 23
			tcfg := TrainerConfig{Episodes: tc.total, RoundsPerEpisode: rounds, UpdateEvery: updateEvery}
			ref, refStats := trainStraight(tc.envs, tcfg, pcfg)
			resumed, tail := trainSplit(t, tc.envs, tc.splitAt, tcfg, pcfg)

			if diff, ok := paramsEqualBits(ref.Params(), resumed.Params()); !ok {
				t.Fatalf("resumed weights diverged from straight training: %s", diff)
			}
			if diff, ok := statsEqualBits(refStats[len(refStats)-len(tail):], tail); !ok {
				t.Fatalf("resumed stats diverged: %s", diff)
			}
			// The RNG stream positions must line up too, or the NEXT draw
			// would diverge.
			ckA, err := ref.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ckB, err := resumed.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ckA.RNG, ckB.RNG) {
				t.Fatalf("policy RNG position %+v, want %+v", ckB.RNG, ckA.RNG)
			}
			if ckA.Opt.Step != ckB.Opt.Step {
				t.Fatalf("optimizer step %d, want %d", ckB.Opt.Step, ckA.Opt.Step)
			}
		})
	}
}

// TestAgentSnapshotRoundTripValueIdentical is the agent-level round-trip
// property: Snapshot → SaveBinary → Load → Restore reproduces weights, moments,
// and the RNG position value-identically, and the restored agent's next
// stochastic action matches the original's.
func TestAgentSnapshotRoundTripValueIdentical(t *testing.T) {
	pcfg := DefaultPPOConfig()
	pcfg.Seed = 9
	agent, _ := trainStraight(1, TrainerConfig{Episodes: 2, RoundsPerEpisode: 15, UpdateEvery: 5}, pcfg)

	ck, err := agent.Snapshot()
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
	clone := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
	if err := clone.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	if diff, ok := paramsEqualBits(agent.Params(), clone.Params()); !ok {
		t.Fatalf("restored weights differ: %s", diff)
	}
	obs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	wantRaw, _, wantLogP, wantV, _ := agent.SelectActionWithMean(obs)
	gotRaw, _, gotLogP, gotV, _ := clone.SelectActionWithMean(obs)
	if math.Float64bits(wantRaw[0]) != math.Float64bits(gotRaw[0]) ||
		math.Float64bits(wantLogP) != math.Float64bits(gotLogP) ||
		math.Float64bits(wantV) != math.Float64bits(gotV) {
		t.Fatal("restored agent's next stochastic action diverged")
	}
}

// TestAgentClone pins Clone: an independent learner in the same state
// whose subsequent training does not touch the original.
func TestAgentClone(t *testing.T) {
	pcfg := DefaultPPOConfig()
	pcfg.Seed = 4
	agent, _ := trainStraight(1, TrainerConfig{Episodes: 2, RoundsPerEpisode: 15, UpdateEvery: 5}, pcfg)
	before, err := agent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := agent.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if diff, ok := paramsEqualBits(agent.Params(), clone.Params()); !ok {
		t.Fatalf("clone weights differ: %s", diff)
	}
	// Train the clone further; the original must be untouched.
	vec := newVecTestSlice(1, 6, 99, 20)
	NewVecTrainer(vec, clone, TrainerConfig{Episodes: 1, RoundsPerEpisode: 10, UpdateEvery: 5}).Run()
	after, err := agent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.RNG, before.RNG) {
		t.Fatal("training the clone moved the original's RNG")
	}
	if diff, ok := paramsEqualBits(agent.Params(), clone.Params()); ok {
		t.Fatalf("clone did not train independently: %s", diff)
	}
}

// TestRestoreErrors pins the strict-restore failure modes at the rl
// level.
func TestRestoreErrors(t *testing.T) {
	pcfg := DefaultPPOConfig()
	pcfg.Seed = 2
	agent := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
	full, err := agent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("weights-only-into-Restore", func(t *testing.T) {
		weightsOnly, err := nn.Snapshot(agent.Params())
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Restore(weightsOnly); err == nil || !strings.Contains(err.Error(), "no optimizer ('O') section") {
			t.Fatalf("full Restore of a weights-only checkpoint: %v, want the missing optimizer section named", err)
		}
		if err := agent.RestoreWeights(weightsOnly); err != nil {
			t.Fatalf("RestoreWeights rejected weights-only checkpoint: %v", err)
		}
	})

	t.Run("architecture-mismatch", func(t *testing.T) {
		other := NewPPO(4, 1, []float64{0}, []float64{1}, pcfg)
		if err := other.Restore(full); err == nil {
			t.Fatal("checkpoint from different architecture restored")
		}
	})

	t.Run("hyperparameter-mismatch", func(t *testing.T) {
		hot := pcfg
		hot.LR = pcfg.LR * 10
		other := NewPPO(6, 1, []float64{0}, []float64{1}, hot)
		if err := other.Restore(full); err == nil {
			t.Fatal("checkpoint restored into a learner with a different learning rate")
		}
		// The seed is normalized out of the learner fingerprint.
		reseeded := pcfg
		reseeded.Seed = 99
		if reseeded.Fingerprint() != pcfg.Fingerprint() {
			t.Fatal("Seed changed the learner fingerprint")
		}
	})

	t.Run("trainer-needs-meta", func(t *testing.T) {
		vec := newVecTestSlice(1, 6, 1, 10)
		tr := NewVecTrainer(vec, agent, TrainerConfig{Episodes: 2, RoundsPerEpisode: 5, UpdateEvery: 5})
		noMeta := *full
		noMeta.Meta = nil
		if err := tr.Restore(&noMeta); err == nil {
			t.Fatal("checkpoint without metadata resumed")
		}
	})

	t.Run("trainer-env-replay-capped", func(t *testing.T) {
		// A stream old enough to carry its captured state but without it
		// would replay 2^40 draws in EnvRestore; Validate refuses it first.
		vec := newVecTestSlice(1, 6, 1, 10)
		a2 := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
		tr := NewVecTrainer(vec, a2, TrainerConfig{Episodes: 2, RoundsPerEpisode: 5, UpdateEvery: 5})
		ck := *full
		ck.Meta = &nn.TrainMeta{Episodes: 1}
		ck.Envs = []nn.EnvState{{RNG: nn.RNGState{Seed: 1, Calls: 1 << 40}}}
		if err := tr.Restore(&ck); err == nil || !strings.Contains(err.Error(), "env 0 rng") {
			t.Fatalf("Restore: %v, want env 0's missing state named", err)
		}
	})

	t.Run("trainer-env-count", func(t *testing.T) {
		vec := newVecTestSlice(2, 6, 1, 10)
		a2 := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
		tr := NewVecTrainer(vec, a2, TrainerConfig{Episodes: 2, RoundsPerEpisode: 5, UpdateEvery: 5})
		ck := *full
		ck.Meta = &nn.TrainMeta{Episodes: 1}
		ck.Envs = []nn.EnvState{{}} // one stream for a two-env trainer
		if err := tr.Restore(&ck); err == nil {
			t.Fatal("env-count mismatch resumed")
		}
	})

	t.Run("misaligned-block-boundary", func(t *testing.T) {
		// A snapshot at 3 episodes cannot resume on a 2-env schedule with
		// budget 6: the uninterrupted run blocks at 2/4/6, so continuing
		// from 3 would partition the remaining episodes differently.
		vec := newVecTestSlice(2, 6, 1, 10)
		a2 := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
		tr := NewVecTrainer(vec, a2, TrainerConfig{Episodes: 6, RoundsPerEpisode: 5, UpdateEvery: 5})
		ck := *full
		ck.Meta = &nn.TrainMeta{Episodes: 3}
		ck.Envs = []nn.EnvState{{}, {}}
		if err := tr.Restore(&ck); err == nil {
			t.Fatal("misaligned episode count resumed")
		}
	})

	t.Run("negative-second-moment", func(t *testing.T) {
		// v averages squared gradients; a negative entry would reach Adam's
		// square root and turn the weights into NaN on the next Update.
		ck, err := agent.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		ck.Opt.V["trunk.l0.W"][3] = -1
		a2 := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
		untouched := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
		if err := a2.Restore(ck); err == nil {
			t.Fatal("checkpoint with a negative second moment restored")
		}
		if diff, ok := paramsEqualBits(a2.Params(), untouched.Params()); !ok {
			t.Fatalf("refused restore changed the weights: %s", diff)
		}
	})

	t.Run("beyond-budget", func(t *testing.T) {
		vec := newVecTestSlice(1, 6, 1, 10)
		a2 := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
		err := NewVecTrainer(vec, a2, TrainerConfig{Episodes: 2, RoundsPerEpisode: 5, UpdateEvery: 5}).Restore(
			&nn.Checkpoint{Version: nn.CheckpointVersion, Params: full.Params, Opt: full.Opt, RNG: full.RNG,
				Envs: []nn.EnvState{{}}, Meta: &nn.TrainMeta{Episodes: 5}})
		if err == nil {
			t.Fatal("checkpoint beyond the episode budget resumed")
		}
	})
}

// TestRunBudgetAndRewind pins the episode accounting: cfg.Episodes is the
// stream's TOTAL budget (a Run on an exhausted trainer is a no-op), and
// Rewind re-opens a full budget on the current state.
func TestRunBudgetAndRewind(t *testing.T) {
	pcfg := DefaultPPOConfig()
	pcfg.Seed = 8
	vec := newVecTestSlice(1, 6, 17, 25)
	agent := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
	trainer := NewVecTrainer(vec, agent, TrainerConfig{Episodes: 2, RoundsPerEpisode: 10, UpdateEvery: 5})
	if got := len(trainer.Run()); got != 2 {
		t.Fatalf("first Run trained %d episodes, want 2", got)
	}
	if trainer.Completed() != 2 {
		t.Fatalf("completed %d, want 2", trainer.Completed())
	}
	if got := len(trainer.Run()); got != 0 {
		t.Fatalf("exhausted Run trained %d episodes, want 0", got)
	}
	trainer.Rewind()
	if stats := trainer.Run(); len(stats) != 2 || stats[0].Episode != 0 {
		t.Fatalf("rewound Run trained %d episodes starting at %d, want 2 from 0", len(stats), stats[0].Episode)
	}
	if trainer.Completed() != 2 {
		t.Fatalf("completed after rewound run %d, want 2", trainer.Completed())
	}
}

// TestTrainingAllocationFreeAfterSnapshotRestore is the alloc gate of the
// checkpoint subsystem: a Snapshot/Restore cycle must not regress the
// zero-allocation steady state of the training loop — after the cycle, a
// full collect/update block still does not touch the heap.
func TestTrainingAllocationFreeAfterSnapshotRestore(t *testing.T) {
	pcfg := DefaultPPOConfig()
	pcfg.Seed = 12
	vec := newVecTestSlice(2, 6, 5, 200)
	agent := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
	col := NewVecCollector(vec, agent)
	buf := NewRollout(0)

	block := func() {
		buf.Reset()
		col.Begin(2)
		for k := 0; k < 20; k++ {
			col.Step(k == 19)
			if (k+1)%10 == 0 {
				col.Merge(buf)
				agent.Update(buf)
			}
		}
	}
	block() // warm up scratch

	ck, err := agent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, block); n != 0 {
		t.Errorf("training block allocates %v times after Snapshot/Restore, want 0", n)
	}
}

// TestPPOFingerprintStable pins PPOConfig.Fingerprint byte for byte.
// Every full checkpoint embeds it twice and every restore compares it, so
// a field reorder, addition or removal that changes the string would make
// existing checkpoints unrestorable. The literals were printed by the
// config that still had a Shards field; see Fingerprint.
func TestPPOFingerprintStable(t *testing.T) {
	const def = "ppo-v1|{Gamma:0.95 Lambda:0.95 ClipEps:0.2 ValueCoef:0.5 EntropyCoef:0 LR:0.0003 MaxGradNorm:0.5 Epochs:10 MiniBatch:20 NormalizeAdv:true FullEpochs:false Hidden:[64 64] Activation:tanh InitLogStd:-0.5 MinLogStd:-4 Shards:0 Seed:0}"
	if got := DefaultPPOConfig().Fingerprint(); got != def {
		t.Errorf("default fingerprint\n  got:  %s\n  want: %s", got, def)
	}
	cfg := DefaultPPOConfig()
	cfg.Hidden = []int{8}
	cfg.FullEpochs = true
	cfg.LR = 1e-3
	cfg.Seed = 9
	const custom = "ppo-v1|{Gamma:0.95 Lambda:0.95 ClipEps:0.2 ValueCoef:0.5 EntropyCoef:0 LR:0.001 MaxGradNorm:0.5 Epochs:10 MiniBatch:20 NormalizeAdv:true FullEpochs:true Hidden:[8] Activation:tanh InitLogStd:-0.5 MinLogStd:-4 Shards:0 Seed:0}"
	if got := cfg.Fingerprint(); got != custom {
		t.Errorf("custom fingerprint\n  got:  %s\n  want: %s", got, custom)
	}
}
