package stackelberg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vtmig/internal/aotm"
	"vtmig/internal/channel"
	"vtmig/internal/mathx"
)

// solveSerialReference is a verbatim copy of the pre-batching SolveInto:
// golden-section over the per-follower MSPUtilityAtPrice, per-follower
// best responses and TotalDemand, same tolerances, and per-follower
// utilities that re-derive the spectral efficiency on every call.
func solveSerialReference(g *Game) Equilibrium {
	lo, hi := g.Cost, g.PMax
	price, _ := mathx.GoldenMax(g.MSPUtilityAtPrice, lo, hi, solverTol, solverIters)
	demands := make([]float64, g.N())
	for n := range g.VMUs {
		demands[n] = serialBestResponse(g, n, price)
	}
	capacityBound := false
	if g.BMax > 0 && mathx.Sum(demands) > g.BMax {
		capacityBound = true
		excess := func(p float64) float64 { return g.TotalDemand(p) - g.BMax }
		if excess(g.PMax) <= 0 {
			if p, ok := mathx.Bisect(excess, price, g.PMax, solverTol, solverIters); ok {
				price = p
			} else {
				price = g.PMax
			}
			for n := range g.VMUs {
				demands[n] = serialBestResponse(g, n, price)
			}
			if sum := mathx.Sum(demands); sum > g.BMax {
				scale := g.BMax / sum
				for i := range demands {
					demands[i] *= scale
				}
			}
		} else {
			price = g.PMax
			for n := range g.VMUs {
				demands[n] = serialBestResponse(g, n, price)
			}
			scale := g.BMax / mathx.Sum(demands)
			for i := range demands {
				demands[i] *= scale
			}
		}
	}
	utilities := make([]float64, g.N())
	for n, v := range g.VMUs {
		utilities[n] = aotm.ImmersionForBandwidth(v.Alpha, v.DataSize, demands[n], g.Channel) - price*demands[n]
	}
	return Equilibrium{
		Price:          price,
		Demands:        demands,
		MSPUtility:     g.MSPUtility(price, demands),
		VMUUtilities:   utilities,
		TotalBandwidth: mathx.Sum(demands),
		CapacityBound:  capacityBound,
	}
}

// This file pins the batched best-response path introduced for the
// fleet-scale simulator: routing the follower best responses, the
// leader's reduced objective, and the solver through the mat vector
// kernels over an SoA follower mirror must be bit-identical to the
// per-follower serial forms — the committed goldens depend on it.

// randomBatchGame builds a game with a randomized follower population,
// including followers priced out at high prices (zero best responses).
func randomBatchGame(rng *rand.Rand, n int) *Game {
	vmus := make([]VMU, n)
	for i := range vmus {
		vmus[i] = VMU{
			ID:       i,
			Alpha:    0.5 + rng.Float64()*20,
			DataSize: 0.5 + rng.Float64()*3,
		}
	}
	return &Game{
		VMUs:    vmus,
		Channel: channel.DefaultParams(),
		Cost:    5,
		PMax:    50,
		BMax:    0.1 + rng.Float64()*2,
	}
}

// serialBestResponse is the original unfused per-follower form, kept here
// as the reference: e recomputed per element, branch-form zero floor.
func serialBestResponse(g *Game, n int, price float64) float64 {
	v := g.VMUs[n]
	b := v.Alpha/price - v.DataSize/g.SpectralEfficiency()
	if b < 0 {
		return 0
	}
	return b
}

func TestBestResponsesBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s EvalScratch
	for trial := 0; trial < 40; trial++ {
		g := randomBatchGame(rng, 1+rng.Intn(64))
		price := g.Cost + rng.Float64()*(g.PMax-g.Cost)
		batch := g.BestResponsesBatchInto(&s, make([]float64, g.N()), price)
		for n := range g.VMUs {
			want := serialBestResponse(g, n, price)
			if math.Float64bits(batch[n]) != math.Float64bits(want) {
				t.Fatalf("trial %d: batched b[%d] = %v, want %v (bit mismatch)", trial, n, batch[n], want)
			}
		}
		// The loop form must agree too (it hoists e out of the loop).
		loop := g.BestResponsesInto(make([]float64, g.N()), price)
		for n := range loop {
			if math.Float64bits(loop[n]) != math.Float64bits(batch[n]) {
				t.Fatalf("trial %d: loop b[%d] = %v, batch %v", trial, n, loop[n], batch[n])
			}
		}
	}
}

func TestGatheredObjectivesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s EvalScratch
	for trial := 0; trial < 40; trial++ {
		g := randomBatchGame(rng, 1+rng.Intn(64))
		s.gather(g)
		for probe := 0; probe < 10; probe++ {
			p := g.Cost + rng.Float64()*(g.PMax-g.Cost)
			if got, want := g.mspUtilityGathered(&s, p), g.MSPUtilityAtPrice(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: mspUtilityGathered(%v) = %v, want %v", trial, p, got, want)
			}
			if got, want := g.totalDemandGathered(&s, p), g.TotalDemand(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: totalDemandGathered(%v) = %v, want %v", trial, p, got, want)
			}
		}
	}
}

// metroGame builds an unconstrained game whose followers are shaped like
// a fleet-scale simulator round: α in [5, 20], twins of 100–300 MB, and
// the channel at the grid world's 400 m RSU spacing.
func metroGame(rng *rand.Rand, n int) *Game {
	vmus := make([]VMU, n)
	for i := range vmus {
		vmus[i] = VMU{
			ID:       i,
			Alpha:    5 + rng.Float64()*15,
			DataSize: aotm.FromMB(100 + rng.Float64()*200),
		}
	}
	ch := channel.DefaultParams()
	ch.DistanceM = 400
	return &Game{VMUs: vmus, Channel: ch, Cost: 5, PMax: 50}
}

// requireSameEquilibrium fails unless got and want agree bit for bit in
// every report field.
func requireSameEquilibrium(t *testing.T, label string, got, want Equilibrium) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Price, want.Price) {
		t.Fatalf("%s: price %v, want %v", label, got.Price, want.Price)
	}
	if got.CapacityBound != want.CapacityBound {
		t.Fatalf("%s: capacityBound %v, want %v", label, got.CapacityBound, want.CapacityBound)
	}
	if len(got.Demands) != len(want.Demands) || len(got.VMUUtilities) != len(want.VMUUtilities) {
		t.Fatalf("%s: %d demands / %d utilities, want %d / %d", label,
			len(got.Demands), len(got.VMUUtilities), len(want.Demands), len(want.VMUUtilities))
	}
	for n := range want.Demands {
		if !same(got.Demands[n], want.Demands[n]) {
			t.Fatalf("%s: demand[%d] %v, want %v", label, n, got.Demands[n], want.Demands[n])
		}
		if !same(got.VMUUtilities[n], want.VMUUtilities[n]) {
			t.Fatalf("%s: VMU utility[%d] %v, want %v", label, n, got.VMUUtilities[n], want.VMUUtilities[n])
		}
	}
	if !same(got.MSPUtility, want.MSPUtility) {
		t.Fatalf("%s: msp utility %v, want %v", label, got.MSPUtility, want.MSPUtility)
	}
	if !same(got.TotalBandwidth, want.TotalBandwidth) {
		t.Fatalf("%s: total bandwidth %v, want %v", label, got.TotalBandwidth, want.TotalBandwidth)
	}
}

// TestSolveMatchesSerialReference re-solves randomized games with a
// hand-rolled copy of the pre-batching SolveInto (per-follower forms
// everywhere) and requires bit-identical equilibria, VMU utilities and
// total bandwidth included. The metro-shaped arms run a fleet-sized round
// unconstrained (BMax = 0, what the simulator passes once its pool is
// exhausted), with the bisection binding, and under admission control at
// pmax. On every game, SolvePriceInto must return the solved price's
// bits, in a fresh scratch and in one a full solve has just used.
func TestSolveMatchesSerialReference(t *testing.T) {
	requireSamePrice := func(label string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: SolvePriceInto %v, want SolveInto's %v", label, got, want)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		g := randomBatchGame(rng, 1+rng.Intn(32))
		label := fmt.Sprintf("trial %d", trial)
		got := g.Solve()
		requireSameEquilibrium(t, label, got, solveSerialReference(g))
		var s EvalScratch
		requireSamePrice(label, g.SolvePriceInto(&s), got.Price)
	}

	const fleet = 5800
	base := metroGame(rand.New(rand.NewSource(11)), fleet)
	atPMax := base.TotalDemand(base.PMax)
	for _, tc := range []struct {
		name  string
		bmax  float64
		bound bool
	}{
		{"unconstrained", 0, false},
		{"bisection", 1.2 * atPMax, true},
		{"admission", 0.5, true},
	} {
		g := *base
		g.BMax = tc.bmax
		var s EvalScratch
		got := g.SolveInto(&s)
		if got.CapacityBound != tc.bound {
			t.Fatalf("metro %s: capacityBound %v, want %v", tc.name, got.CapacityBound, tc.bound)
		}
		if tc.name == "bisection" && got.Price >= g.PMax {
			t.Fatalf("metro bisection: price %v reached pmax; the arm must bind below it", got.Price)
		}
		requireSameEquilibrium(t, "metro "+tc.name, got, solveSerialReference(&g))
		requireSamePrice("metro "+tc.name, g.SolvePriceInto(&s), got.Price)
		var fresh EvalScratch
		requireSamePrice("metro "+tc.name+" fresh scratch", g.SolvePriceInto(&fresh), got.Price)
	}
}

// TestScratchAcrossChannels reuses one scratch over games on different
// channels, alternating SolveInto and EvaluateInto. Every report must
// equal, bit for bit, the serial reference (which re-derives the
// spectral efficiency per follower) or Evaluate on a fresh scratch: the
// report's utilities read the spectral efficiency of the game just
// gathered, never one a previous game left in the scratch.
func TestScratchAcrossChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s EvalScratch
	for trial := 0; trial < 40; trial++ {
		g := randomBatchGame(rng, 1+rng.Intn(6))
		g.Channel.DistanceM = 100 + 900*rng.Float64()
		label := fmt.Sprintf("trial %d at %.0f m", trial, g.Channel.DistanceM)
		requireSameEquilibrium(t, label+": SolveInto", g.SolveInto(&s), solveSerialReference(g))
		price := g.Cost + (g.PMax-g.Cost)*rng.Float64()
		requireSameEquilibrium(t, label+": EvaluateInto", g.EvaluateInto(&s, price), g.Evaluate(price))
	}
}

func TestBatchPanicsOnNonPositivePrice(t *testing.T) {
	g := DefaultGame()
	var s EvalScratch
	for _, price := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BestResponsesBatchInto(%g) did not panic", price)
				}
			}()
			g.BestResponsesBatchInto(&s, make([]float64, g.N()), price)
		}()
	}
}
