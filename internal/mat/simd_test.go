package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// valueMix is one way of filling kernel operands: standard normals, with
// a share of the elements drawn from a list of special values instead.
type valueMix struct {
	name    string
	share   float64
	special []float64
}

var valueMixes = []valueMix{
	{name: "normal"},
	{name: "signed-zeros", share: 0.6, special: []float64{0, math.Copysign(0, -1)}},
	{name: "subnormal", share: 0.5, special: []float64{5e-324, -5e-324, 1e-310, -3e-315, 1e-160, -1e-170}},
	{name: "inf", share: 0.08, special: []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e300, -1e300}},
	{name: "nan", share: 0.04, special: []float64{math.NaN()}},
}

func (v valueMix) fill(rng *rand.Rand, x []float64) {
	for i := range x {
		if rng.Float64() < v.share {
			x[i] = v.special[rng.Intn(len(v.special))]
		} else {
			x[i] = rng.NormFloat64()
		}
	}
}

// TestGemmKernelsBitwise sweeps MulTo, MulAddTo and MulATBAddTo over
// shapes that reach every tail of both implementations — 1–5 and more
// rows, inner dimensions of every residue mod 4, column counts of every
// residue mod 8 — and over operands laced with ±0, subnormals, ±Inf and
// NaN, comparing each result bit for bit with the textbook loop.
func TestGemmKernelsBitwise(t *testing.T) {
	rowsSet := []int{1, 2, 3, 4, 5, 8, 9}
	kSet := []int{1, 2, 3, 4, 5, 6, 7, 8, 13}
	var nSet []int
	for n := 1; n <= 17; n++ {
		nSet = append(nSet, n)
	}
	nSet = append(nSet, 23, 64)
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, mix := range valueMixes {
			for _, m := range rowsSet {
				for _, kk := range kSet {
					for _, n := range nSet {
						name := fmt.Sprintf("%s m=%d k=%d n=%d", mix.name, m, kk, n)
						a, b, dst := New(m, kk), New(kk, n), New(m, n)
						mix.fill(rng, a.Data)
						mix.fill(rng, b.Data)
						mix.fill(rng, dst.Data)

						want := make([]float64, m*n)
						refGemmAcc(want, rowsOf(a), b.Data, m, kk, n)
						requireSameBits(t, "MulTo "+name, MulTo(New(m, n), a, b).Data, want)

						copy(want, dst.Data)
						refGemmAcc(want, rowsOf(a), b.Data, m, kk, n)
						requireSameBits(t, "MulAddTo "+name, MulAddTo(cloneMat(dst), a, b).Data, want)
						// MulATBAddTo takes the same operand stored transposed.
						at := transposed(a)
						requireSameBits(t, "MulATBAddTo "+name, MulATBAddTo(cloneMat(dst), at, b).Data, want)
					}
				}
			}
		}
	})
}

// cloneMat returns a copy of m.
func cloneMat(m *Matrix) *Matrix {
	return FromSlice(m.Rows, m.Cols, append([]float64(nil), m.Data...))
}

// transposed returns aᵀ in a new matrix.
func transposed(a *Matrix) *Matrix {
	t := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			t.Data[j*a.Rows+i] = v
		}
	}
	return t
}

// TestMulABTKernelsBitwise sweeps MulABTBiasTo over shapes that reach
// every path of both implementations (the AVX2 kernel's 4-row
// blocks and single rows, its 8- and 4-column tiles, k of every residue
// mod 4, and the n mod 4 columns it leaves to the Go loop) and over
// operands and biases laced with ±0, subnormals, ±Inf and NaN, comparing
// each result bit for bit with the textbook loop. dst starts as garbage
// and sits between guard elements that no call may write.
func TestMulABTKernelsBitwise(t *testing.T) {
	rowsSet := []int{1, 2, 3, 4, 5, 8, 9, 20}
	kSet := []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 64}
	var nSet []int
	for n := 1; n <= 17; n++ {
		nSet = append(nSet, n)
	}
	nSet = append(nSet, 23, 64, 66)
	const guard = 4
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for _, mix := range valueMixes {
			for _, m := range rowsSet {
				for _, kk := range kSet {
					for _, n := range nSet {
						name := fmt.Sprintf("%s m=%d k=%d n=%d", mix.name, m, kk, n)
						a, b, bias := New(m, kk), New(n, kk), make([]float64, n)
						mix.fill(rng, a.Data)
						mix.fill(rng, b.Data)
						mix.fill(rng, bias)
						buf := make([]float64, m*n+2*guard)
						for i := range buf {
							buf[i] = float64(i) + 0.5
						}
						dst := FromSlice(m, n, buf[guard:guard+m*n])
						mix.fill(rng, dst.Data)

						requireSameBits(t, "MulABTBiasTo "+name, MulABTBiasTo(dst, a, b, bias).Data, refABT(a, b, bias))
						for i, v := range buf {
							if (i < guard || i >= guard+m*n) && v != float64(i)+0.5 {
								t.Fatalf("%s: wrote guard element %d", name, i)
							}
						}
					}
				}
			}
		}
	})
}

// refAdam is optim.go's scalar Adam loop, the order AdamStep's SIMD lanes
// must reproduce.
func refAdam(p, grad, m, v []float64, beta1, beta2, lr, c1, c2, eps float64) {
	for i, g := range grad {
		m[i] = beta1*m[i] + (1-beta1)*g
		v[i] = beta2*v[i] + (1-beta2)*g*g
		mHat := m[i] / c1
		vHat := v[i] / c2
		p[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}

// TestAdamStepMatchesScalarLoop runs AdamStep and the scalar reference
// side by side for hundreds of steps, on lengths that leave every
// remainder mod 4, with gradients that are all zero on some steps, zero
// per element on others, and span many magnitudes (subnormals included),
// comparing parameters and both moments bit for bit after every step.
func TestAdamStepMatchesScalarLoop(t *testing.T) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 64, 67} {
			for _, lr := range []float64{1e-5, 3e-4} {
				p, m, v := make([]float64, n), make([]float64, n), make([]float64, n)
				for i := range p {
					p[i] = rng.NormFloat64()
				}
				refP, refM, refV := append([]float64(nil), p...), make([]float64, n), make([]float64, n)
				g := make([]float64, n)
				for step := 1; step <= 300; step++ {
					for i := range g {
						switch {
						case step%7 == 0, rng.Intn(5) == 0:
							g[i] = 0
						case rng.Intn(10) == 0:
							g[i] = 5e-324 * float64(rng.Intn(100))
						default:
							g[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-8))
						}
					}
					c1 := 1 - math.Pow(beta1, float64(step))
					c2 := 1 - math.Pow(beta2, float64(step))
					AdamStep(p, g, m, v, beta1, beta2, lr, c1, c2, eps)
					refAdam(refP, g, refM, refV, beta1, beta2, lr, c1, c2, eps)
					what := fmt.Sprintf("n=%d lr=%g step %d", n, lr, step)
					requireSameBits(t, "p "+what, p, refP)
					requireSameBits(t, "m "+what, m, refM)
					requireSameBits(t, "v "+what, v, refV)
				}
			}
		}
	})
}
