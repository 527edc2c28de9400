package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"vtmig/internal/pomdp"
	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// This file pins rule 5 of the determinism contract: with a fixed
// simulator seed (and a fixed offline-training seed for the warm start),
// an online-pricer simulation produces a bit-identical sim.Report and
// bit-identical final network weights regardless of GOMAXPROCS.
// Transitions enter the rollout in simulator-round order and every
// optimization phase runs the rule-1 fixed-order kernels, so scheduling
// cannot reorder a single floating-point accumulation.

// onlineSimRun trains a warm-start agent, deploys it online, runs a
// fixed-seed simulation, and returns the report plus the final weights.
func onlineSimRun(t *testing.T) (Report, [][]float64) {
	t.Helper()
	game := stackelberg.DefaultGame()
	envCfg := pomdp.Config{
		Game:       game,
		HistoryLen: 3,
		Rounds:     20,
		Reward:     pomdp.RewardBinary,
		Seed:       4,
	}
	vec, err := pomdp.NewVecEnv(envCfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := rl.DefaultPPOConfig()
	pcfg.Seed = 4
	pcfg.MiniBatch = 10
	lo, hi := vec.ActionBounds()
	agent := rl.NewPPO(vec.ObsDim(), vec.ActDim(), lo, hi, pcfg)
	rl.NewVecTrainer(vec, agent, rl.TrainerConfig{
		Episodes:         4,
		RoundsPerEpisode: 20,
		UpdateEvery:      10,
	}).Run()

	pricer, err := NewOnlinePricer(OnlinePricerConfig{
		Game:        game,
		HistoryLen:  3,
		Agent:       agent,
		UpdateEvery: 10,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DurationS = 240
	cfg.Seed = 11
	cfg.Pricer = pricer
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run()

	var weights [][]float64
	for _, p := range pricer.Agent().Params() {
		weights = append(weights, append([]float64(nil), p.Value...))
	}
	return rep, weights
}

// sameBits compares two weight snapshots bit for bit.
func sameBits(t *testing.T, label string, ref, got [][]float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d params, want %d", label, len(got), len(ref))
	}
	for pi := range ref {
		for i := range ref[pi] {
			if math.Float64bits(ref[pi][i]) != math.Float64bits(got[pi][i]) {
				t.Fatalf("%s: param %d[%d] = %v, want %v", label, pi, i, got[pi][i], ref[pi][i])
			}
		}
	}
}

// TestOnlineSimBitIdentical is the rule-5 table: every GOMAXPROCS cell
// is bit-identical to the reference run.
func TestOnlineSimBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("online determinism table skipped in -short mode")
	}
	refRep, refW := onlineSimRun(t)
	if refRep.PricingRounds == 0 || len(refRep.Migrations) == 0 {
		t.Fatalf("reference run is trivial: %+v", refRep)
	}
	for _, gmp := range []int{1, 2, 4} {
		name := fmt.Sprintf("gomaxprocs=%d", gmp)
		t.Run(name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(gmp)
			defer runtime.GOMAXPROCS(prev)
			rep, w := onlineSimRun(t)
			if !reflect.DeepEqual(refRep, rep) {
				t.Fatalf("report diverged from the reference:\nref: %+v\ngot: %+v", refRep, rep)
			}
			sameBits(t, name, refW, w)
		})
	}
}

// TestOnlineSimReproducible pins plain same-seed reproducibility of the
// online path (two identical runs, bit-identical report and weights) —
// the cheap smoke version of the table above, kept out of -short too
// because it trains.
func TestOnlineSimReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("online training test skipped in -short mode")
	}
	repA, wA := onlineSimRun(t)
	repB, wB := onlineSimRun(t)
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("reports differ:\n%+v\n%+v", repA, repB)
	}
	sameBits(t, "repeat", wA, wB)
}
