package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"vtmig/internal/nn"
	"vtmig/internal/pomdp"
	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// This file pins the rule-6 extension of the determinism contract at the
// simulation level: pausing an online-pricer run at an optimization-phase
// boundary, snapshotting the pricer, rebuilding it from the checkpoint
// (persisted through the binary encoding), and swapping it into the same
// simulation is bit-identical — sim.Report and final weights — to never
// having stopped, even when GOMAXPROCS differs between the two legs.

// resumePPOConfig is the learner configuration shared by every run in
// this file; the checkpoint fingerprint pins it across the swap (Seed is
// excluded from the fingerprint by design: the checkpoint carries the
// RNG state itself).
func resumePPOConfig() rl.PPOConfig {
	cfg := rl.DefaultPPOConfig()
	cfg.Seed = 4
	cfg.MiniBatch = 10
	return cfg
}

// resumeWarmAgent trains the warm-start agent exactly as onlineSimRun
// does.
func resumeWarmAgent(t *testing.T) *rl.PPO {
	t.Helper()
	game := stackelberg.DefaultGame()
	vec, err := pomdp.NewVecEnv(pomdp.Config{
		Game:       game,
		HistoryLen: 3,
		Rounds:     20,
		Reward:     pomdp.RewardBinary,
		Seed:       4,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := vec.ActionBounds()
	agent := rl.NewPPO(vec.ObsDim(), vec.ActDim(), lo, hi, resumePPOConfig())
	rl.NewVecTrainer(vec, agent, rl.TrainerConfig{
		Episodes:         4,
		RoundsPerEpisode: 20,
		UpdateEvery:      10,
	}).Run()
	return agent
}

// resumeSimulator builds the fixed-seed simulation every run in this file
// drives.
func resumeSimulator(t *testing.T, pricer Pricer) *Simulator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DurationS = 240
	cfg.Seed = 11
	cfg.Pricer = pricer
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// weightsOf deep-copies an agent's parameter values.
func weightsOf(agent *rl.PPO) [][]float64 {
	var weights [][]float64
	for _, p := range agent.Params() {
		weights = append(weights, append([]float64(nil), p.Value...))
	}
	return weights
}

// uninterruptedRun is the reference: one simulation straight through.
func uninterruptedRun(t *testing.T) (Report, [][]float64, *OnlinePricer) {
	t.Helper()
	pricer, err := NewOnlinePricer(OnlinePricerConfig{
		Game:        stackelberg.DefaultGame(),
		HistoryLen:  3,
		Agent:       resumeWarmAgent(t),
		UpdateEvery: 10,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := resumeSimulator(t, pricer)
	rep := s.Run()
	return rep, weightsOf(pricer.Agent()), pricer
}

// splitRun runs the same simulation but pauses at the first
// optimization-phase boundary in the second half, snapshots the pricer,
// persists the checkpoint through the binary encoding, rebuilds the
// pricer from it under GOMAXPROCS gmp2, swaps it in, and finishes the
// run.
func splitRun(t *testing.T, gmp1, gmp2 int) (Report, [][]float64, *OnlinePricer) {
	t.Helper()
	prev := runtime.GOMAXPROCS(gmp1)
	defer runtime.GOMAXPROCS(prev)

	game := stackelberg.DefaultGame()
	pricer1, err := NewOnlinePricer(OnlinePricerConfig{
		Game:        game,
		HistoryLen:  3,
		Agent:       resumeWarmAgent(t),
		UpdateEvery: 10,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := resumeSimulator(t, pricer1)
	steps := int(s.cfg.DurationS / s.cfg.TimeStepS)

	current := pricer1
	swapped := false
	for i := 0; i < steps; i++ {
		s.Step()
		// An optimization phase just completed iff the stream is at a
		// boundary (no Flush runs mid-simulation, so pending ==
		// rounds mod cadence).
		atBoundary := current.Updates() > 0 && current.Rounds()%current.UpdateEvery() == 0
		if swapped || i < steps/2 || !atBoundary {
			continue
		}
		ck, err := current.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at step %d: %v", i, err)
		}
		// Persist through the compact binary encoding — the sim-level
		// resume exercises the full save/load path, not just the
		// in-memory checkpoint.
		var buf bytes.Buffer
		if err := ck.SaveBinary(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := nn.LoadCheckpoint(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(gmp2)
		resumed, err := NewOnlinePricerFromCheckpoint(OnlinePricerConfig{
			Game: game,
			PPO:  resumePPOConfig(),
		}, loaded)
		if err != nil {
			t.Fatalf("resuming pricer: %v", err)
		}
		if err := s.SetPricer(resumed); err != nil {
			t.Fatal(err)
		}
		current = resumed
		swapped = true
	}
	if !swapped {
		t.Fatal("no optimization-phase boundary reached in the second half; resume never exercised")
	}
	rep := s.Finish()
	return rep, weightsOf(current.Agent()), current
}

// TestOnlineSimResumeBitIdentical is the sim-level resume table: the
// split run must be bit-identical to the uninterrupted reference while
// GOMAXPROCS of either leg varies.
func TestOnlineSimResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("online resume table skipped in -short mode")
	}
	refRep, refW, refPricer := uninterruptedRun(t)
	if refRep.PricingRounds == 0 || refPricer.Updates() == 0 {
		t.Fatalf("reference run is trivial: %+v", refRep)
	}
	for _, tc := range []struct{ gmp1, gmp2 int }{
		{1, 4},
		{4, 1},
		{2, 2},
		{1, 2},
	} {
		name := fmt.Sprintf("gomaxprocs=%d-%d", tc.gmp1, tc.gmp2)
		t.Run(name, func(t *testing.T) {
			rep, w, pricer := splitRun(t, tc.gmp1, tc.gmp2)
			if !reflect.DeepEqual(refRep, rep) {
				t.Fatalf("report diverged from uninterrupted reference:\nref: %+v\ngot: %+v", refRep, rep)
			}
			sameBits(t, name, refW, w)
			if pricer.Rounds() != refPricer.Rounds() || pricer.Updates() != refPricer.Updates() {
				t.Fatalf("stream counters diverged: rounds %d updates %d, want rounds %d updates %d",
					pricer.Rounds(), pricer.Updates(), refPricer.Rounds(), refPricer.Updates())
			}
			if pricer.BestUtility() != refPricer.BestUtility() {
				t.Fatalf("best utility %v, want %v", pricer.BestUtility(), refPricer.BestUtility())
			}
		})
	}
}

// TestOnlinePricerSnapshotRejectsMidSegment pins the phase-boundary
// guard: a pricer with staged transitions refuses to snapshot instead of
// silently dropping them.
func TestOnlinePricerSnapshotRejectsMidSegment(t *testing.T) {
	game := stackelberg.DefaultGame()
	pricer, err := NewOnlinePricer(OnlinePricerConfig{Game: game, HistoryLen: 2, UpdateEvery: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pricer.PriceFor(game)
	if pricer.Rounds() != 1 {
		t.Fatalf("rounds = %d, want 1", pricer.Rounds())
	}
	if _, err := pricer.Snapshot(); err == nil {
		t.Fatal("mid-segment snapshot succeeded")
	}
	// After flushing the partial segment, the boundary is reached and the
	// snapshot round-trips through both encodings into a working pricer.
	if _, ran := pricer.Flush(); !ran {
		t.Fatal("flush ran no phase")
	}
	ck, err := pricer.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewOnlinePricerFromCheckpoint(OnlinePricerConfig{Game: game}, ck)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Rounds() != pricer.Rounds() || resumed.Updates() != pricer.Updates() {
		t.Fatalf("resumed counters rounds=%d updates=%d, want rounds=%d updates=%d",
			resumed.Rounds(), resumed.Updates(), pricer.Rounds(), pricer.Updates())
	}
	if resumed.BestUtility() != pricer.BestUtility() {
		t.Fatalf("resumed best %v, want %v", resumed.BestUtility(), pricer.BestUtility())
	}
}

// TestOnlinePricerResumeConfigMismatches pins the named construction
// errors of NewOnlinePricerFromCheckpoint.
func TestOnlinePricerResumeConfigMismatches(t *testing.T) {
	game := stackelberg.DefaultGame()
	pricer, err := NewOnlinePricer(OnlinePricerConfig{Game: game, HistoryLen: 2, UpdateEvery: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pricer.PriceFor(game)
	if _, ran := pricer.Flush(); !ran {
		t.Fatal("flush ran no phase")
	}
	ck, err := pricer.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]OnlinePricerConfig{
		"history-mismatch":   {Game: game, HistoryLen: 7},
		"cadence-mismatch":   {Game: game, UpdateEvery: 9},
		"reward-mismatch":    {Game: game, Reward: pomdp.RewardBinary},
		"agent-set":          {Game: game, Agent: pricer.Agent()},
		"tolerance-mismatch": {Game: game, BestTolFrac: 0.5},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := NewOnlinePricerFromCheckpoint(cfg, ck); err == nil {
				t.Fatalf("%s accepted", name)
			}
		})
	}
	if _, err := NewOnlinePricerFromCheckpoint(OnlinePricerConfig{Game: game}, nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
	weightsOnly := &nn.Checkpoint{Version: ck.Version, Params: ck.Params, Pricer: ck.Pricer}
	if _, err := NewOnlinePricerFromCheckpoint(OnlinePricerConfig{Game: game}, weightsOnly); err == nil {
		t.Fatal("checkpoint without training state accepted")
	}
	noPricer := &nn.Checkpoint{Version: ck.Version, Params: ck.Params, Opt: ck.Opt, RNG: ck.RNG, Meta: ck.Meta}
	if _, err := NewOnlinePricerFromCheckpoint(OnlinePricerConfig{Game: game}, noPricer); err == nil {
		t.Fatal("checkpoint without pricer section accepted")
	}
}
