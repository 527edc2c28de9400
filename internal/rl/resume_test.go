package rl

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"vtmig/internal/nn"
)

// The tests in this file pin the sixth rule of the determinism contract:
// a full checkpoint (weights + Adam moments/step + policy RNG position +
// environment stream states + episode count) restores training
// bit-identically — train K episodes, snapshot, restore into freshly
// constructed envs/agent, train K more is the same run as training 2K
// straight, for any shard count, CollectWorkers, and GOMAXPROCS.

// trainStraight trains a fresh agent for cfg.Episodes and returns it with
// its stats.
func trainStraight(envs int, tcfg TrainerConfig, pcfg PPOConfig) (*PPO, []EpisodeStats) {
	vec := newVecTestSlice(envs, 6, 17, tcfg.RoundsPerEpisode+3)
	agent := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
	return agent, NewVecTrainer(vec, agent, tcfg).Run()
}

// trainSplit trains to splitAt episodes, snapshots, round-trips the
// checkpoint through JSON, restores into freshly built envs and agent,
// and trains to the full budget. The two legs may use different worker
// and shard counts (tcfg/firstP vs resumeCfg/resumeP) — pure throughput
// knobs under the contract. It returns the resumed agent and the
// second-leg stats.
func trainSplit(t *testing.T, envs, splitAt int, tcfg, resumeCfg TrainerConfig, firstP, resumeP PPOConfig) (*PPO, []EpisodeStats) {
	t.Helper()
	firstCfg := tcfg
	firstCfg.Episodes = splitAt
	vec1 := newVecTestSlice(envs, 6, 17, tcfg.RoundsPerEpisode+3)
	agent1 := NewPPO(6, 1, []float64{0}, []float64{1}, firstP)
	tr1 := NewVecTrainer(vec1, agent1, firstCfg)
	tr1.Fingerprint = "resume-test"
	tr1.Run()

	ck, err := tr1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := nn.LoadCheckpoint(&buf)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}

	vec2 := newVecTestSlice(envs, 6, 17, tcfg.RoundsPerEpisode+3)
	agent2 := NewPPO(6, 1, []float64{0}, []float64{1}, resumeP)
	tr2, err := ResumeTrainer(vec2, agent2, resumeCfg, loaded)
	if err != nil {
		t.Fatalf("ResumeTrainer: %v", err)
	}
	if tr2.Completed() != splitAt || tr2.Fingerprint != "resume-test" {
		t.Fatalf("resumed trainer at %d episodes (fingerprint %q), want %d (resume-test)",
			tr2.Completed(), tr2.Fingerprint, splitAt)
	}
	return agent2, tr2.Run()
}

// TestResumeBitIdentity is the resume-equality table: snapshot-at-K-then-
// train-K must equal train-2K for every combination of environment count,
// collection workers, shard count, and GOMAXPROCS — including worker and
// shard counts that differ between the snapshot and the resume leg.
func TestResumeBitIdentity(t *testing.T) {
	const rounds, updateEvery = 20, 10
	cells := []struct {
		name                        string
		envs, splitAt, total        int
		firstWorkers, resumeWorkers int
		firstShards, resumeShards   int
		gomaxprocs                  int
	}{
		{name: "serial", envs: 1, splitAt: 3, total: 6, firstWorkers: 1, resumeWorkers: 1, firstShards: 1, resumeShards: 1, gomaxprocs: 1},
		{name: "odd-split", envs: 1, splitAt: 2, total: 7, firstWorkers: 1, resumeWorkers: 1, firstShards: 1, resumeShards: 1, gomaxprocs: 2},
		{name: "sharded-resume", envs: 1, splitAt: 3, total: 6, firstWorkers: 1, resumeWorkers: 1, firstShards: 1, resumeShards: 3, gomaxprocs: 4},
		{name: "vec", envs: 2, splitAt: 2, total: 6, firstWorkers: 2, resumeWorkers: 1, firstShards: 2, resumeShards: 1, gomaxprocs: 2},
		{name: "vec-workers-differ", envs: 3, splitAt: 3, total: 6, firstWorkers: 1, resumeWorkers: 4, firstShards: 0, resumeShards: 2, gomaxprocs: 4},
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(tc.gomaxprocs)
			defer runtime.GOMAXPROCS(prev)

			pcfg := DefaultPPOConfig()
			pcfg.Seed = 23

			straightCfg := TrainerConfig{Episodes: tc.total, RoundsPerEpisode: rounds,
				UpdateEvery: updateEvery, CollectWorkers: 1}
			straightP := pcfg
			straightP.Shards = 1
			ref, refStats := trainStraight(tc.envs, straightCfg, straightP)

			firstP := pcfg
			firstP.Shards = tc.firstShards
			firstCfg := straightCfg
			firstCfg.CollectWorkers = tc.firstWorkers
			resumeP := pcfg
			resumeP.Shards = tc.resumeShards
			resumeCfg := straightCfg
			resumeCfg.CollectWorkers = tc.resumeWorkers
			resumed, tail := trainSplit(t, tc.envs, tc.splitAt, firstCfg, resumeCfg, firstP, resumeP)

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

// TestResumeShardedAgentBitIdentity pins that the RESUMED leg may change
// the shard count mid-stream: resuming a serial-trained checkpoint into a
// sharded learner (and vice versa) stays on the reference trajectory.
// (Covered by the table above for selected cells; this test sweeps shard
// counts densely on the serial env.)
func TestResumeShardedAgentBitIdentity(t *testing.T) {
	tcfg := TrainerConfig{Episodes: 6, RoundsPerEpisode: 20, UpdateEvery: 10, CollectWorkers: 1}
	pcfg := DefaultPPOConfig()
	pcfg.Seed = 31
	pcfg.Shards = 1
	ref, _ := trainStraight(1, tcfg, pcfg)

	for _, shards := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			resumeP := pcfg
			resumeP.Shards = shards
			resumed, _ := trainSplit(t, 1, 3, tcfg, tcfg, pcfg, resumeP)
			if diff, ok := paramsEqualBits(ref.Params(), resumed.Params()); !ok {
				t.Fatalf("resumed weights diverged: %s", diff)
			}
		})
	}
}

// TestAgentSnapshotRoundTripValueIdentical is the agent-level round-trip
// property: Snapshot → Save → Load → Restore reproduces weights, moments,
// and the RNG position value-identically, and the restored agent's next
// stochastic action matches the original's.
func TestAgentSnapshotRoundTripValueIdentical(t *testing.T) {
	pcfg := DefaultPPOConfig()
	pcfg.Seed = 9
	agent, _ := trainStraight(1, TrainerConfig{Episodes: 2, RoundsPerEpisode: 15, UpdateEvery: 5, CollectWorkers: 1}, pcfg)

	ck, err := agent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := nn.LoadCheckpoint(&buf)
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
	wantRaw, _, wantLogP, wantV := agent.SelectAction(obs)
	gotRaw, _, gotLogP, gotV := clone.SelectAction(obs)
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
	agent, _ := trainStraight(1, TrainerConfig{Episodes: 2, RoundsPerEpisode: 15, UpdateEvery: 5, CollectWorkers: 1}, pcfg)
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
	NewVecTrainer(vec, clone, TrainerConfig{Episodes: 1, RoundsPerEpisode: 10, UpdateEvery: 5, CollectWorkers: 1}).Run()
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
		if err := agent.Restore(weightsOnly); err == nil {
			t.Fatal("weights-only checkpoint accepted by full Restore")
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
		// Throughput knobs and seed are normalized out of the learner
		// fingerprint.
		sharded := pcfg
		sharded.Shards = 3
		sharded.Seed = 99
		if sharded.Fingerprint() != pcfg.Fingerprint() {
			t.Fatal("Shards/Seed changed the learner fingerprint")
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
		_, err := ResumeTrainer(vec, a2, TrainerConfig{Episodes: 2, RoundsPerEpisode: 5, UpdateEvery: 5},
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
	col := NewVecCollector(vec, agent, 2)
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
