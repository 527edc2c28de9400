package stackelberg

import (
	"math"

	"vtmig/internal/mat"
	"vtmig/internal/mathx"
)

// Equilibrium is a solved Stackelberg outcome.
//
// Ownership of the slice fields depends on how the value was produced:
// Solve and Evaluate return freshly allocated slices the caller owns,
// while the *Into variants alias the EvalScratch they were given, which
// the next *Into call on the same scratch overwrites. Clone decouples a
// report that must outlive its scratch.
type Equilibrium struct {
	// Price is the MSP's optimal unit bandwidth price p*.
	Price float64
	// Demands are the followers' bandwidth purchases b*_n in MHz.
	Demands []float64
	// MSPUtility is U_s(p*, b*).
	MSPUtility float64
	// VMUUtilities are U_n(b*_n, p*).
	VMUUtilities []float64
	// TotalBandwidth is Σ b*_n.
	TotalBandwidth float64
	// CapacityBound reports whether the Bmax constraint binds at the
	// optimum (the regime behind the price increase in Fig. 3(c)).
	CapacityBound bool
}

// Clone returns a deep copy of eq whose slices are freshly allocated and
// independent of any EvalScratch.
func (eq Equilibrium) Clone() Equilibrium {
	eq.Demands = append([]float64(nil), eq.Demands...)
	eq.VMUUtilities = append([]float64(nil), eq.VMUUtilities...)
	return eq
}

// EvalScratch holds the reusable destination buffers of the *Into
// evaluation path. One scratch serves one game-evaluation loop: every
// EvaluateInto/SolveInto call on it overwrites the slices of the
// previously returned Equilibrium. The zero value is ready to use and
// grows to the follower count on first use; a scratch must not be shared
// between concurrent goroutines.
//
// Besides the result buffers, the scratch carries a structure-of-arrays
// mirror of the followers (α_n and D_n/e) that the best-response kernels
// and the solver's single-pass objective probes read, and the channel's
// spectral efficiency e that the report's utilities read. The mirror is
// re-gathered from the game on every SolveInto/EvaluateInto entry — never
// cached across calls — so a scratch can serve games whose VMUs or
// channel change between rounds.
type EvalScratch struct {
	demands   []float64
	utilities []float64

	// alphas and dOverE are the SoA follower mirror.
	alphas []float64
	dOverE []float64
	// e is the spectral efficiency of the last game gathered.
	e float64
}

// grow sizes every buffer to n followers, reusing capacity. A scratch
// that must grow at least doubles, so a caller whose games creep upward
// in size (the simulator's pricing rounds) reallocates a logarithmic
// number of times rather than at every new maximum.
func (s *EvalScratch) grow(n int) {
	if cap(s.demands) < n {
		m := max(n, 2*cap(s.demands))
		s.demands = make([]float64, m)
		s.utilities = make([]float64, m)
		s.alphas = make([]float64, m)
		s.dOverE = make([]float64, m)
	}
	s.demands = s.demands[:n]
	s.utilities = s.utilities[:n]
	s.alphas = s.alphas[:n]
	s.dOverE = s.dOverE[:n]
}

// gather refreshes the SoA follower mirror from the game: alphas[i] = α_i
// and dOverE[i] = D_i/e with e hoisted once, and keeps e itself for the
// report (equilibriumInto). The serial path divides D_n/e with the same
// e on every call, so precomputing the quotient here is bit-identical to
// recomputing it per element.
func (s *EvalScratch) gather(g *Game) {
	s.grow(g.N())
	e := g.SpectralEfficiency()
	s.e = e
	for i, v := range g.VMUs {
		s.alphas[i] = v.Alpha
		s.dOverE[i] = v.DataSize / e
	}
}

// bestResponsesGathered fills dst with every follower's best response at
// price from the already-gathered mirror — the two mat kernel passes of
// BestResponsesBatchInto without the re-gather, for the solver's inner
// loops where the game is fixed.
func (g *Game) bestResponsesGathered(s *EvalScratch, dst []float64, price float64) []float64 {
	mat.DivSubInto(dst, s.alphas, price, s.dOverE)
	return mat.ClampMinInto(dst, dst, 0)
}

// flooredResponse is one follower's best response α/p − D/e from the
// gathered mirror, with the branch-form zero floor of mat.ClampMinInto.
func flooredResponse(alpha, price, dOverE float64) float64 {
	b := alpha/price - dOverE
	if b < 0 {
		return 0
	}
	return b
}

// mspUtilityGathered is MSPUtilityAtPrice over the gathered mirror in one
// pass: each follower's floored best response and its (p−C)·b_n term,
// accumulated in follower order — the per-element expression and
// summation order of the serial form, without materializing the demand
// vector.
func (g *Game) mspUtilityGathered(s *EvalScratch, price float64) float64 {
	dOverE := s.dOverE[:len(s.alphas)]
	var u float64
	for i, a := range s.alphas {
		u += (price - g.Cost) * flooredResponse(a, price, dOverE[i])
	}
	return u
}

// totalDemandGathered is TotalDemand over the gathered mirror in one
// pass, accumulating the floored best responses in follower order like
// the serial loop.
func (g *Game) totalDemandGathered(s *EvalScratch, price float64) float64 {
	dOverE := s.dOverE[:len(s.alphas)]
	var total float64
	for i, a := range s.alphas {
		total += flooredResponse(a, price, dOverE[i])
	}
	return total
}

// UnconstrainedOptimalPrice evaluates the closed form of Theorem 2,
// p* = sqrt(C·e·Σα_n / ΣD_n), which is exact when every follower's best
// response is interior (b*_n > 0) and the Bmax constraint is slack.
func (g *Game) UnconstrainedOptimalPrice() float64 {
	var sumAlpha, sumD float64
	for _, v := range g.VMUs {
		sumAlpha += v.Alpha
		sumD += v.DataSize
	}
	return math.Sqrt(g.Cost * g.SpectralEfficiency() * sumAlpha / sumD)
}

// solverTol is the bracket tolerance for the price searches. Prices live
// in [C, pmax] ⊂ [5, 50], so 1e-9 is far below any meaningful digit.
const solverTol = 1e-9

// solverIters bounds the golden-section/bisection iteration counts.
const solverIters = 200

// Solve computes the Stackelberg equilibrium of the full constrained game
// (Problem 1 + Problem 2): the leader maximizes U_s(p) over [C, pmax]
// subject to Σ b*_n(p) ≤ Bmax, followers play best responses.
//
// Strategy: U_s(p) is strictly concave where demands are interior
// (Theorem 2) and total demand is strictly decreasing in p, so
//  1. find the unconstrained maximizer by golden-section search
//     (robust to the max(0,·) kinks of opt-out followers);
//  2. if total demand at that price exceeds Bmax, move the price up to
//     the unique point where Σ b*_n(p) = Bmax (bisection) — U_s is
//     decreasing past the unconstrained optimum, so the binding price is
//     optimal;
//  3. if even pmax cannot damp demand below Bmax, charge pmax and admit
//     demands proportionally scaled to capacity.
func (g *Game) Solve() Equilibrium {
	var s EvalScratch
	return g.SolveInto(&s)
}

// SolveInto is Solve with caller-provided scratch: the returned report's
// slices alias s and are overwritten by the next *Into call on s. After a
// warm-up call the solve is allocation-free in steady state.
func (g *Game) SolveInto(s *EvalScratch) Equilibrium {
	price, capacityBound := g.solvePriceInto(s)
	return g.equilibriumInto(s, price, capacityBound)
}

// SolvePriceInto returns SolveInto(s).Price, bit for bit, without building
// the rest of the report: no follower or MSP utility is evaluated. It is
// the whole solve for a caller that only posts the price.
func (g *Game) SolvePriceInto(s *EvalScratch) float64 {
	price, _ := g.solvePriceInto(s)
	return price
}

// solvePriceInto runs Solve's price search and leaves the admitted demand
// vector in s.demands. It reports whether the capacity constraint binds.
func (g *Game) solvePriceInto(s *EvalScratch) (price float64, capacityBound bool) {
	lo, hi := g.Cost, g.PMax
	s.gather(g)
	obj := func(p float64) float64 { return g.mspUtilityGathered(s, p) }
	price, _ = mathx.GoldenMax(obj, lo, hi, solverTol, solverIters)
	demands := g.bestResponsesGathered(s, s.demands, price)

	if g.BMax > 0 && mathx.Sum(demands) > g.BMax {
		capacityBound = true
		excess := func(p float64) float64 { return g.totalDemandGathered(s, p) - g.BMax }
		if excess(g.PMax) <= 0 {
			// The binding price lies in (price, pmax]: demand is
			// continuous and strictly decreasing there.
			if p, ok := mathx.Bisect(excess, price, g.PMax, solverTol, solverIters); ok {
				price = p
			} else {
				price = g.PMax
			}
			g.bestResponsesGathered(s, demands, price)
			// Wash out residual bisection error so Σb ≤ Bmax exactly.
			if sum := mathx.Sum(demands); sum > g.BMax {
				scale := g.BMax / sum
				for i := range demands {
					demands[i] *= scale
				}
			}
		} else {
			// Demand exceeds capacity even at pmax: admission control.
			price = g.PMax
			g.bestResponsesGathered(s, demands, price)
			scale := g.BMax / mathx.Sum(demands)
			for i := range demands {
				demands[i] *= scale
			}
		}
	}
	return price, capacityBound
}

// Evaluate builds the full equilibrium report for an arbitrary price with
// followers playing best responses (subject to proportional admission when
// Bmax binds). This is how learned or baseline prices are scored. The
// returned slices are freshly allocated; per-round loops use EvaluateInto.
func (g *Game) Evaluate(price float64) Equilibrium {
	var s EvalScratch
	return g.EvaluateInto(&s, price)
}

// EvaluateInto is Evaluate with caller-provided scratch — the
// allocation-free form used by the POMDP environment's per-round loop.
// The returned report's slices alias s and are overwritten by the next
// *Into call on s; use Clone (or Evaluate) for a report that must be
// retained. Results are bit-identical to Evaluate.
func (g *Game) EvaluateInto(s *EvalScratch, price float64) Equilibrium {
	price = mathx.Clamp(price, g.Cost, g.PMax)
	s.gather(g)
	demands := g.bestResponsesGathered(s, s.demands, price)
	bound := false
	if g.BMax > 0 {
		if sum := mathx.Sum(demands); sum > g.BMax {
			bound = true
			scale := g.BMax / sum
			for i := range demands {
				demands[i] *= scale
			}
		}
	}
	return g.equilibriumInto(s, price, bound)
}

// equilibriumInto assembles the report struct over the scratch buffers,
// which a gather of g has filled (s.demands already holds the admitted
// demand vector). Every follower utility reads the spectral efficiency
// that gather kept instead of evaluating it again; VMUUtility computes
// the same e, so the utilities are bit-identical.
func (g *Game) equilibriumInto(s *EvalScratch, price float64, bound bool) Equilibrium {
	for n := range g.VMUs {
		s.utilities[n] = g.vmuUtility(n, s.demands[n], price, s.e)
	}
	return Equilibrium{
		Price:          price,
		Demands:        s.demands,
		MSPUtility:     g.MSPUtility(price, s.demands),
		VMUUtilities:   s.utilities,
		TotalBandwidth: mathx.Sum(s.demands),
		CapacityBound:  bound,
	}
}

// SolveFollowersIBR solves the followers' subgame at a fixed price by
// iterated best response over a bandwidth grid, the generic competitive-
// game solver used to cross-check the closed form (and reusable for
// coupled variants such as the multi-MSP extension). It returns the demand
// vector after convergence.
//
// Because the followers' utilities are decoupled in the base game, IBR
// converges in one sweep; the iteration structure matters only for coupled
// extensions.
func (g *Game) SolveFollowersIBR(price float64, sweeps int, tol float64) []float64 {
	demands := make([]float64, g.N())
	upper := make([]float64, g.N())
	for n, v := range g.VMUs {
		// An upper bracket: utility is negative beyond α/p·e ≫ b*.
		upper[n] = v.Alpha/price + 1
	}
	for s := 0; s < sweeps; s++ {
		maxShift := 0.0
		for n := range g.VMUs {
			obj := func(b float64) float64 { return g.VMUUtility(n, b, price) }
			b, _ := mathx.GoldenMax(obj, 0, upper[n], 1e-12, solverIters)
			if obj(0) >= obj(b) {
				b = 0 // opting out dominates
			}
			if shift := math.Abs(b - demands[n]); shift > maxShift {
				maxShift = shift
			}
			demands[n] = b
		}
		if maxShift < tol {
			break
		}
	}
	return demands
}
