// Package stackelberg implements the paper's primary contribution: the
// AoTM-based Stackelberg game between a monopolist Metaverse Service
// Provider (MSP, the leader, who prices bandwidth) and N Vehicular
// Metaverse Users (VMUs, the followers, who purchase bandwidth to migrate
// their Vehicular Twins).
//
// The package provides the utility functions of Section III, the
// closed-form follower best response (Eq. 8) and leader optimum
// (Theorem 2), numeric solvers that handle the Bmax capacity constraint of
// Problem 2, an iterated-best-response solver for the followers' subgame,
// and an equilibrium verifier for Definition 1.
//
// Units: bandwidth in MHz and data sizes in units of 100 MB; the figures
// plot bandwidth on the paper's 10 kHz axis, multiplied by
// experiments.BandwidthDisplayScale (100).
package stackelberg

import (
	"fmt"

	"vtmig/internal/aotm"
	"vtmig/internal/channel"
	"vtmig/internal/mat"
)

// VMU is one follower: a vehicular metaverse user whose twin must be
// migrated.
type VMU struct {
	// ID identifies the VMU (unique within a game).
	ID int
	// Alpha is α_n, the unit immersion profit (paper: sampled from [5, 20]).
	Alpha float64
	// DataSize is D_n, the total migrated VT data in model units of
	// 100 MB (paper: 100–300 MB, i.e. 1–3 units).
	DataSize float64
}

// Validate reports whether the VMU's parameters are admissible.
func (v VMU) Validate() error {
	if v.Alpha <= 0 {
		return fmt.Errorf("stackelberg: VMU %d: alpha must be positive, got %g", v.ID, v.Alpha)
	}
	if v.DataSize <= 0 {
		return fmt.Errorf("stackelberg: VMU %d: data size must be positive, got %g", v.ID, v.DataSize)
	}
	return nil
}

// Game is one instance of the Stackelberg pricing game.
type Game struct {
	// VMUs are the followers.
	VMUs []VMU
	// Channel is the RSU-to-RSU link model shared by all migrations.
	Channel channel.Params
	// Cost is C, the MSP's unit transmission cost (paper: 5).
	Cost float64
	// PMax is the maximum bandwidth price (paper: 50).
	PMax float64
	// BMax is the MSP's total bandwidth in MHz; zero or negative means
	// unconstrained. The paper's "50 MHz" corresponds to 0.5 MHz in the
	// model's units.
	BMax float64
}

// NewGame constructs a validated game.
func NewGame(vmus []VMU, ch channel.Params, cost, pmax, bmax float64) (*Game, error) {
	g := &Game{VMUs: vmus, Channel: ch, Cost: cost, PMax: pmax, BMax: bmax}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// DefaultGame returns the paper's two-VMU benchmark scenario:
// α₁=α₂=5, D₁=200 MB, D₂=100 MB, C=5, pmax=50, Bmax=0.5 MHz.
func DefaultGame() *Game {
	return &Game{
		VMUs: []VMU{
			{ID: 0, Alpha: 5, DataSize: aotm.FromMB(200)},
			{ID: 1, Alpha: 5, DataSize: aotm.FromMB(100)},
		},
		Channel: channel.DefaultParams(),
		Cost:    5,
		PMax:    50,
		BMax:    0.5,
	}
}

// Validate reports whether the game's parameters are admissible.
func (g *Game) Validate() error {
	if len(g.VMUs) == 0 {
		return fmt.Errorf("stackelberg: game needs at least one VMU")
	}
	seen := make(map[int]bool, len(g.VMUs))
	for _, v := range g.VMUs {
		if err := v.Validate(); err != nil {
			return err
		}
		if seen[v.ID] {
			return fmt.Errorf("stackelberg: duplicate VMU id %d", v.ID)
		}
		seen[v.ID] = true
	}
	if err := g.Channel.Validate(); err != nil {
		return err
	}
	if g.Cost <= 0 {
		return fmt.Errorf("stackelberg: cost must be positive, got %g", g.Cost)
	}
	if g.PMax <= g.Cost {
		return fmt.Errorf("stackelberg: pmax %g must exceed cost %g", g.PMax, g.Cost)
	}
	return nil
}

// N returns the number of followers.
func (g *Game) N() int { return len(g.VMUs) }

// SpectralEfficiency returns e = log2(1+SNR) of the shared channel.
func (g *Game) SpectralEfficiency() float64 { return g.Channel.SpectralEfficiency() }

// VMUUtility evaluates Eq. (2): U_n(b) = α_n·ln(1 + 1/A_n(b)) − p·b for
// follower index n (zero-based position in VMUs, not ID).
func (g *Game) VMUUtility(n int, bandwidth, price float64) float64 {
	return g.vmuUtility(n, bandwidth, price, g.SpectralEfficiency())
}

// vmuUtility is VMUUtility at the already-evaluated spectral efficiency
// e, for loops that hoist e out of the per-follower work.
func (g *Game) vmuUtility(n int, bandwidth, price, e float64) float64 {
	v := g.VMUs[n]
	return aotm.ImmersionForRate(v.Alpha, v.DataSize, bandwidth, e) - price*bandwidth
}

// VMUMarginalUtility evaluates ∂U_n/∂b (Eq. 7, first line):
// α·e/(D + b·e) − p. Its unique zero is the best response.
func (g *Game) VMUMarginalUtility(n int, bandwidth, price float64) float64 {
	v := g.VMUs[n]
	e := g.SpectralEfficiency()
	return v.Alpha*e/(v.DataSize+bandwidth*e) - price
}

// BestResponse evaluates Eq. (8): b*_n = α_n/p − D_n/e, floored at zero
// (the paper implicitly assumes interior solutions; at high prices the
// non-negativity constraint binds and the VMU opts out).
func (g *Game) BestResponse(n int, price float64) float64 {
	if price <= 0 {
		panic(fmt.Sprintf("stackelberg: price must be positive, got %g", price))
	}
	v := g.VMUs[n]
	b := v.Alpha/price - v.DataSize/g.SpectralEfficiency()
	if b < 0 {
		return 0
	}
	return b
}

// BestResponses returns every follower's best response to price. The
// result is freshly allocated; hot loops use BestResponsesInto.
func (g *Game) BestResponses(price float64) []float64 {
	return g.BestResponsesInto(make([]float64, g.N()), price)
}

// BestResponsesInto writes every follower's best response to price into
// dst (length N) and returns dst — the destination-passing form used by
// the allocation-free evaluation path. The spectral efficiency is hoisted
// out of the loop (it is a pure per-game constant), and the per-follower
// expression and zero floor are exactly BestResponse's, so the fused loop
// is bit-identical to the per-element form.
func (g *Game) BestResponsesInto(dst []float64, price float64) []float64 {
	if len(dst) != g.N() {
		panic(fmt.Sprintf("stackelberg: BestResponsesInto dst length %d, want %d", len(dst), g.N()))
	}
	if price <= 0 {
		panic(fmt.Sprintf("stackelberg: price must be positive, got %g", price))
	}
	e := g.SpectralEfficiency()
	for n, v := range g.VMUs {
		b := v.Alpha/price - v.DataSize/e
		if b < 0 {
			b = 0
		}
		dst[n] = b
	}
	return dst
}

// BestResponsesBatchInto is BestResponsesInto routed through the mat
// vector kernels over the scratch's structure-of-arrays follower mirror:
// one fused quotient-difference pass (mat.DivSubInto) and one branch-form
// clamp (mat.ClampMinInto) over the whole batch, instead of a per-vehicle
// loop. Results are bit-identical to BestResponsesInto — the per-element
// expression α/p − D/e and the `< 0` floor are unchanged, only batched.
func (g *Game) BestResponsesBatchInto(s *EvalScratch, dst []float64, price float64) []float64 {
	if len(dst) != g.N() {
		panic(fmt.Sprintf("stackelberg: BestResponsesBatchInto dst length %d, want %d", len(dst), g.N()))
	}
	if price <= 0 {
		panic(fmt.Sprintf("stackelberg: price must be positive, got %g", price))
	}
	s.gather(g)
	mat.DivSubInto(dst, s.alphas, price, s.dOverE)
	return mat.ClampMinInto(dst, dst, 0)
}

// TotalDemand returns Σ_n b*_n(price).
func (g *Game) TotalDemand(price float64) float64 {
	var total float64
	for n := range g.VMUs {
		total += g.BestResponse(n, price)
	}
	return total
}

// MSPUtility evaluates Eq. (4): U_s = Σ_n (p − C)·b_n for an explicit
// demand vector.
func (g *Game) MSPUtility(price float64, demands []float64) float64 {
	if len(demands) != g.N() {
		panic(fmt.Sprintf("stackelberg: demands length %d, want %d", len(demands), g.N()))
	}
	var u float64
	for _, b := range demands {
		u += (price - g.Cost) * b
	}
	return u
}

// MSPUtilityAtPrice evaluates the leader's reduced objective (Eq. 9):
// U_s(p) with followers playing their best responses. It accumulates the
// per-follower terms directly — in follower order, exactly like
// MSPUtility over a BestResponses vector — so it is allocation-free and
// bit-identical to the materialized form.
func (g *Game) MSPUtilityAtPrice(price float64) float64 {
	var u float64
	for n := range g.VMUs {
		u += (price - g.Cost) * g.BestResponse(n, price)
	}
	return u
}

// AoTMs returns each follower's Age of Twin Migration under the given
// demand vector (+Inf for zero bandwidth). The result is freshly
// allocated; hot loops use AoTMsInto.
func (g *Game) AoTMs(demands []float64) []float64 {
	return g.AoTMsInto(make([]float64, g.N()), demands)
}

// AoTMsInto writes each follower's Age of Twin Migration under the given
// demand vector into dst (length N) and returns dst.
func (g *Game) AoTMsInto(dst, demands []float64) []float64 {
	if len(dst) != g.N() || len(demands) != g.N() {
		panic(fmt.Sprintf("stackelberg: AoTMsInto lengths %d/%d, want %d", len(dst), len(demands), g.N()))
	}
	for n, v := range g.VMUs {
		dst[n] = aotm.AoTMForBandwidth(v.DataSize, demands[n], g.Channel)
	}
	return dst
}
