package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randMat returns a rows×cols matrix with standard-normal entries.
func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	m.Randomize(rng, 1)
	return m
}

// forEachKernelPath runs fn as one subtest per kernel implementation:
// "scalar" with the SIMD path forced off, and "avx2" when the CPU has it.
// The selector is restored afterwards.
func forEachKernelPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	for _, simd := range []bool{false, true} {
		name := "scalar"
		if simd {
			name = "avx2"
		}
		if simd && !haveAVX2 {
			t.Run(name, func(t *testing.T) { t.Skip("CPU has no AVX2") })
			continue
		}
		useAVX2 = simd
		t.Run(name, fn)
	}
}

// sameBits reports whether x and y are the same float64, bit for bit;
// any two NaNs count as the same.
func sameBits(x, y float64) bool {
	if math.IsNaN(x) && math.IsNaN(y) {
		return true
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// requireSameBits fails at the first element where got and want differ
// in their bits (so −0 against +0 fails), comparing NaN only as NaN.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (%#016x), want %v (%#016x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// refGemmAcc is the textbook loop every GEMM kernel must reproduce:
// c[i][j] += ai(i, k)·b[k][j], one k-term at a time, k ascending, with no
// term skipped.
func refGemmAcc(c []float64, ai func(i, k int) float64, b []float64, m, kk, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*n+j]
			for k := 0; k < kk; k++ {
				s += ai(i, k) * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
}

// rowsOf reads a's element (i, k): the operand MulTo and MulAddTo take.
func rowsOf(a *Matrix) func(i, k int) float64 {
	return func(i, k int) float64 { return a.Data[i*a.Cols+k] }
}

func TestMulToMatchesNaive(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, sz := range [][3]int{{1, 1, 1}, {3, 5, 4}, {20, 21, 64}, {65, 130, 67}} {
			a := randMat(rng, sz[0], sz[1])
			b := randMat(rng, sz[1], sz[2])
			want := make([]float64, sz[0]*sz[2])
			refGemmAcc(want, rowsOf(a), b.Data, sz[0], sz[1], sz[2])
			requireSameBits(t, fmt.Sprintf("MulTo %v", sz), MulTo(New(sz[0], sz[2]), a, b).Data, want)
		}
	})
}

// TestMulAddToAccumulates checks dst += a·b against element-wise
// accumulation one k-term at a time, k ascending, with no term skipped:
// zeros in a meet infinities in b (0·Inf = NaN) and −0 starting values,
// where a reference that skipped zero terms would disagree.
func TestMulAddToAccumulates(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		a := randMat(rng, 7, 9)
		b := randMat(rng, 9, 5)
		dst := randMat(rng, 7, 5)
		a.Row(0)[3] = 0
		b.Row(3)[1] = math.Inf(1)
		a.Row(2)[4] = 0
		for j := range dst.Row(4) {
			dst.Row(4)[j] = math.Copysign(0, -1)
		}
		for k := range a.Row(4) {
			a.Row(4)[k] = 0
		}
		b.Row(0)[0] = 1 // row 4's first term in column 0 is +0
		want := append([]float64(nil), dst.Data...)
		refGemmAcc(want, rowsOf(a), b.Data, 7, 9, 5)
		requireSameBits(t, "MulAddTo", MulAddTo(dst, a, b).Data, want)
		if !math.IsNaN(dst.At(0, 1)) {
			t.Errorf("0·Inf term was skipped: dst(0,1) = %v, want NaN", dst.At(0, 1))
		}
		if math.Signbit(dst.At(4, 0)) {
			t.Errorf("−0 + (+0 terms) kept its sign: dst(4,0) = %v, want +0", dst.At(4, 0))
		}
	})
}

// refABT is the textbook loop MulABTBiasTo must reproduce: dst[i][j] =
// Σₖ a[i][k]·b[j][k] in one accumulator that starts at +0, k ascending,
// then + bias[j].
func refABT(a, b *Matrix, bias []float64) []float64 {
	m, kk, n := a.Rows, a.Cols, b.Rows
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < kk; k++ {
				s += a.Data[i*kk+k] * b.Data[j*kk+k]
			}
			out[i*n+j] = s + bias[j]
		}
	}
	return out
}

// TestMulABTBiasToMatchesForward checks the fused bias add against the
// sequential "dot then add bias" order of a layer's forward pass, one
// row at a time.
func TestMulABTBiasToMatchesForward(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		batch, in, out := 6, 11, 7
		x := randMat(rng, batch, in)
		w := randMat(rng, out, in)
		bias := make([]float64, out)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		got := MulABTBiasTo(New(batch, out), x, w, bias)
		for b := 0; b < batch; b++ {
			want := refABT(FromSlice(1, in, x.Row(b)), w, bias)
			requireSameBits(t, fmt.Sprintf("row %d", b), got.Row(b), want)
		}
	})
}

// TestMulATBAddToMatchesOuterUpdates checks bit-exact agreement with the
// textbook gradient-accumulation loop: one rank-1 update dst[i][j] +=
// dy[b][i]·x[b][j] per batch row, applied in row order, with no term
// skipped.
func TestMulATBAddToMatchesOuterUpdates(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		batch, out, in := 9, 6, 13
		dy := randMat(rng, batch, out)
		x := randMat(rng, batch, in)
		got := randMat(rng, out, in)
		want := append([]float64(nil), got.Data...)
		for b := 0; b < batch; b++ {
			for i, g := range dy.Row(b) {
				for j, v := range x.Row(b) {
					want[i*in+j] += g * v
				}
			}
		}
		requireSameBits(t, "MulATBAddTo", MulATBAddTo(got, dy, x).Data, want)
	})
}

// TestMulToMatchesMulVecT checks that dX = dY·W agrees bit for bit with
// the textbook per-row product Wᵀ·dy, the input gradient of one sample:
// dx[j] = Σₖ dy[k]·W[k][j], from +0, k ascending.
func TestMulToMatchesMulVecT(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		batch, out, in := 8, 10, 12
		dy := randMat(rng, batch, out)
		w := randMat(rng, out, in)
		got := MulTo(New(batch, in), dy, w)
		dst := make([]float64, in)
		for b := 0; b < batch; b++ {
			for j := range dst {
				var s float64
				for k, g := range dy.Row(b) {
					s += g * w.At(k, j)
				}
				dst[j] = s
			}
			requireSameBits(t, fmt.Sprintf("row %d", b), got.Row(b), dst)
		}
	})
}

// TestAddColSumToBitwise compares AddColSumTo with the rows-ascending
// textbook loop, from starting sums and rows laced with ±0, subnormals,
// ±Inf and NaN, over widths of every residue mod 4 and row counts up to
// and past the kernel's unitBlock-row chunks.
func TestAddColSumToBitwise(t *testing.T) {
	rowsSet := []int{1, 2, 3, 4, 5, 8, 9, 20, unitBlock - 1, unitBlock, unitBlock + 1, 2*unitBlock + 3}
	colsSet := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 17, 64}
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for _, mix := range valueMixes {
			for _, rows := range rowsSet {
				for _, cols := range colsSet {
					a, dst := New(rows, cols), make([]float64, cols)
					mix.fill(rng, a.Data)
					mix.fill(rng, dst)
					want := append([]float64(nil), dst...)
					for i := 0; i < rows; i++ {
						for j, v := range a.Row(i) {
							want[j] += v
						}
					}
					requireSameBits(t, fmt.Sprintf("AddColSumTo %s %dx%d", mix.name, rows, cols), AddColSumTo(dst, a), want)
				}
			}
		}
		// Rows without columns have nothing to sum.
		if got := AddColSumTo(nil, &Matrix{Rows: 3}); len(got) != 0 {
			t.Fatalf("AddColSumTo over 3x0 = %v, want empty", got)
		}
	})
}

// TestHeadsInputGradOneBuffer pins the exactness the actor-critic's two
// heads rely on when they accumulate their input gradients into one
// buffer: MulTo for the mean head (actDim terms from +0) and then
// MulAddTo for the one-unit value head give the bits of two separate
// MulTo products added element-wise, dx = dM·Wm + (+0 + dv·wv). The
// operands are laced with ±0 (so −0 products occur), subnormals, ±Inf
// and NaN.
func TestHeadsInputGradOneBuffer(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for _, mix := range valueMixes {
			for _, rows := range []int{1, 2, 3, 4, 5, 9, 20} {
				for _, act := range []int{1, 2, 3} {
					for _, in := range []int{1, 3, 4, 5, 8, 13, 64} {
						dm, wm := New(rows, act), New(act, in)
						dv, wv := New(rows, 1), New(1, in)
						for _, m := range []*Matrix{dm, wm, dv, wv} {
							mix.fill(rng, m.Data)
						}
						want := make([]float64, rows*in)
						for i := 0; i < rows; i++ {
							for j := 0; j < in; j++ {
								var mean float64
								for k := 0; k < act; k++ {
									mean += dm.At(i, k) * wm.At(k, j)
								}
								var value float64
								value += dv.At(i, 0) * wv.At(0, j)
								want[i*in+j] = mean + value
							}
						}
						dx := New(rows, in)
						mix.fill(rng, dx.Data)
						MulTo(dx, dm, wm)
						MulAddTo(dx, dv, wv)
						requireSameBits(t, fmt.Sprintf("%s rows=%d act=%d in=%d", mix.name, rows, act, in), dx.Data, want)
					}
				}
			}
		}
	})
}

// TestTanhGradToBitwise compares TanhGradTo with the textbook g·(1 − o·o)
// loop over every valueMixes fill, over outputs that are ±0, ±1, ±Inf
// and NaN, at every length from 0 to 9 and at 67, and in place over the
// gradient.
func TestTanhGradToBitwise(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324}
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for _, mix := range valueMixes {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 67} {
				grad, out := make([]float64, n), make([]float64, n)
				mix.fill(rng, grad)
				mix.fill(rng, out)
				for i := range out {
					if rng.Intn(4) == 0 {
						out[i] = specials[rng.Intn(len(specials))]
					}
				}
				want := make([]float64, n)
				for i, g := range grad {
					o := out[i]
					want[i] = g * (1 - o*o)
				}
				what := fmt.Sprintf("TanhGradTo %s n=%d", mix.name, n)
				dst := make([]float64, n)
				TanhGradTo(dst, grad, out)
				requireSameBits(t, what, dst, want)
				TanhGradTo(grad, grad, out)
				requireSameBits(t, what+" in place", grad, want)
			}
		}
	})
}

// TestMulABTUnitBitwise sweeps MulABTBiasTo at one output column, the
// shape of the actor-critic's heads, which the AVX2 path runs with its
// operands swapped: 1–9 and 20 rows, row counts up to and past the
// unitBlock-row chunks, inner dimensions of every residue mod 4, and
// biases of +0 and −0 as well as every valueMixes fill.
func TestMulABTUnitBitwise(t *testing.T) {
	rowsSet := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 20, unitBlock, unitBlock + 3, 2*unitBlock + 5}
	kSet := []int{1, 2, 3, 4, 5, 7, 8, 12, 13, 64}
	biases := []float64{0, math.Copysign(0, -1), 1.5}
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(24))
		for _, mix := range valueMixes {
			for _, m := range rowsSet {
				for _, kk := range kSet {
					a, w := New(m, kk), New(1, kk)
					mix.fill(rng, a.Data)
					mix.fill(rng, w.Data)
					for _, bias := range append(biases, a.Data[0]) {
						b := []float64{bias}
						dst := New(m, 1)
						mix.fill(rng, dst.Data)
						what := fmt.Sprintf("MulABTBiasTo %s m=%d k=%d bias=%v", mix.name, m, kk, bias)
						requireSameBits(t, what, MulABTBiasTo(dst, a, w, b).Data, refABT(a, w, b))
					}
				}
			}
		}
	})
}

func TestKernelShapePanics(t *testing.T) {
	a := New(2, 3)
	b := New(4, 5)
	short := &Matrix{Rows: 2, Cols: 3, Data: make([]float64, 5)}
	two, three := make([]float64, 2), make([]float64, 3)
	cases := map[string]func(){
		"MulTo":              func() { MulTo(New(2, 5), a, b) },
		"MulABTBiasTo":       func() { MulABTBiasTo(New(2, 4), a, b, make([]float64, 4)) },
		"MulATBAddTo":        func() { MulATBAddTo(New(3, 5), a, b) },
		"Resize":             func() { New(1, 1).Resize(0, 2) },
		"MulABTBiasTo/bias":  func() { MulABTBiasTo(New(2, 4), a, New(4, 3), two) },
		"AdamStep":           func() { AdamStep(two, three, two, two, 1, 0.9, 0.999, 1, 1, 1, 1e-8) },
		"TanhTo":             func() { TanhTo(two, three) },
		"TanhGradTo":         func() { TanhGradTo(two, two, three) },
		"AddColSumTo":        func() { AddColSumTo(two, a) },
		"MulAddTo/short":     func() { MulAddTo(New(2, 4), short, New(3, 4)) },
		"MulATBAddTo/short":  func() { MulATBAddTo(New(3, 4), short, New(2, 4)) },
		"MulABTBiasTo/short": func() { MulABTBiasTo(New(2, 4), short, New(4, 3), make([]float64, 4)) },
	}
	forEachKernelPath(t, func(t *testing.T) {
		for name, fn := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: bad shape did not panic", name)
					}
				}()
				fn()
			}()
		}
	})
}

func TestResizeReusesStorage(t *testing.T) {
	m := New(4, 8)
	data := &m.Data[0]
	m.Resize(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("Resize gave %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	if &m.Data[0] != data {
		t.Error("Resize to smaller shape reallocated")
	}
	m.Resize(10, 10)
	if len(m.Data) != 100 {
		t.Fatalf("Resize grow gave len %d", len(m.Data))
	}
}

// TestKernelsAllocationFree locks in the zero-allocation contract of the
// destination-passing kernels.
func TestKernelsAllocationFree(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		a := randMat(rng, 20, 24)
		w := randMat(rng, 64, 24)
		b := randMat(rng, 24, 16)
		dstABT := New(20, 64)
		dstMul := New(20, 16)
		dstATB := New(20, 16)
		row, dstRow := randMat(rng, 1, 24), New(1, 64)
		head, dstHead := randMat(rng, 1, 24), New(20, 1)
		bias := make([]float64, 64)
		cs := make([]float64, 24)
		dy := randMat(rng, 24, 20)
		p, g, m, v := make([]float64, 30), make([]float64, 30), make([]float64, 30), make([]float64, 30)
		for name, fn := range map[string]func(){
			"MulTo":             func() { MulTo(dstMul, a, b) },
			"MulABTBiasTo":      func() { MulABTBiasTo(dstABT, a, w, bias) },
			"MulATBAddTo":       func() { MulATBAddTo(dstATB, dy, b) },
			"AddColSumTo":       func() { AddColSumTo(cs, a) },
			"MulABTBiasTo/row":  func() { MulABTBiasTo(dstRow, row, w, bias) },
			"MulABTBiasTo/unit": func() { MulABTBiasTo(dstHead, a, head, bias[:1]) },
			"AdamStep":          func() { AdamStep(p, g, m, v, 0.5, 0.9, 0.999, 1e-3, 0.1, 0.001, 1e-8) },
			"TanhTo":            func() { TanhTo(m, p) },
			"TanhGradTo":        func() { TanhGradTo(g, p, m) },
		} {
			if n := testing.AllocsPerRun(10, fn); n != 0 {
				t.Errorf("%s allocates %v times per call, want 0", name, n)
			}
		}
	})
}
