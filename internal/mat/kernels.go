package mat

import (
	"fmt"
	"math"
)

// This file holds the allocation-free GEMM kernel layer: every routine
// writes into a caller-supplied destination, never allocates, and uses a
// fixed per-element accumulation order (k ascending, one accumulator per
// destination element) so results are bit-for-bit deterministic and
// identical to the textbook loops the tests keep as references.
// Throughput comes from loop order, register blocking and SIMD lanes, not
// from reassociating floating-point sums:
//
//   - MulTo uses the cache-friendly i-k-j loop order (unit stride over both
//     B and C) with row blocking.
//   - MulABTBiasTo consumes Bᵀ without materializing the transpose. Its Go
//     form reads both row-major operands at unit stride in a 2×4 register
//     tile; its AVX2 form computes four destination columns per vector,
//     transposing 4×4 blocks of B in registers, in 4×4 tiles that let one
//     transposed block serve four rows of A. Every forward pass of an
//     nn.Linear, one row or a batch, runs through it.
//   - MulATBAddTo accumulates Aᵀ·B directly into dst, preserving the
//     element-wise accumulation order of the textbook rank-1 update loop
//     (dst[i][j] += a[k][i]·b[k][j], one k at a time, k ascending), which
//     gradient accumulation relies on.
//
// On amd64 CPUs with AVX2 (probed once from CPUID), MulAddTo, MulTo,
// MulABTBiasTo, MulATBAddTo and AdamStep run the assembly in
// simd_amd64.s. Its vector lanes span only independent destination
// elements, each still summed in its own k-ascending accumulator, and
// each multiply-add is a separate VMULPD and VADDPD. An in-register
// transpose only moves operands into those lanes; it never combines two
// elements' sums. These kernels never use FMA: a fused multiply-add
// rounds once where the Go loops round twice, so its bits would differ.
// The assembly therefore reproduces the Go loops below bit for bit; they
// stay the fallback on every other CPU and GOARCH and the reference the
// tests compare against.
//
// TanhTo is the element-wise exception. Its kernel reproduces math.Tanh,
// the function it replaces, and math.Exp's amd64 assembly fuses its
// multiply-adds whenever the runtime reports AVX and FMA, so the kernel
// fuses exactly those. It runs only where CPUID shows AVX2 and FMA and a
// check at package init finds it equal to math.Tanh in this process.

// useAVX2 selects the AVX2 kernels. It is set once, from the CPU probe;
// only tests change it, to run the Go loops on an AVX2 machine.
var useAVX2 = haveAVX2

// blockRows is the row-panel size for MulTo: 64 rows of C (and A) are
// processed per panel so the panel of B stays hot in L1/L2 across the
// panel's k sweep.
const blockRows = 64

func checkShape(op string, gotR, gotC, wantR, wantC int) {
	if gotR != wantR || gotC != wantC {
		panic(fmt.Sprintf("mat: %s shape %dx%d, want %dx%d", op, gotR, gotC, wantR, wantC))
	}
}

// MulTo computes dst = a·b. Shapes: a is m×k, b is k×n, dst is m×n.
// dst must not alias a or b. It returns dst.
//
// Per destination element the sum runs over k ascending — the same order
// as a row-times-column dot product — so the result is bit-identical to
// the textbook triple loop.
func MulTo(dst, a, b *Matrix) *Matrix {
	checkShape("MulTo b", b.Rows, b.Cols, a.Cols, b.Cols)
	checkShape("MulTo dst", dst.Rows, dst.Cols, a.Rows, b.Cols)
	dst.Zero()
	return MulAddTo(dst, a, b)
}

// MulAddTo computes dst += a·b with the same shape rules and accumulation
// order as MulTo. Each dst element is updated k-ascending with a single
// accumulator, so the result is bit-identical to accumulating k rank-1
// updates in order; unrolling k by 4 keeps the accumulator in a register
// across four updates instead of bouncing through memory.
func MulAddTo(dst, a, b *Matrix) *Matrix {
	checkShape("MulAddTo b", b.Rows, b.Cols, a.Cols, b.Cols)
	checkShape("MulAddTo dst", dst.Rows, dst.Cols, a.Rows, b.Cols)
	m, kk, n := a.Rows, a.Cols, b.Cols
	if useAVX2 {
		gemmAccSIMD(dst, a, b, m, kk, n, kk, 1)
		return dst
	}
	for i0 := 0; i0 < m; i0 += blockRows {
		i1 := i0 + blockRows
		if i1 > m {
			i1 = m
		}
		for i := i0; i < i1; i++ {
			arow := a.Data[i*kk : (i+1)*kk]
			crow := dst.Data[i*n : (i+1)*n]
			k := 0
			for ; k+4 <= kk; k += 4 {
				u0, u1, u2, u3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				b0 := b.Data[k*n : (k+1)*n]
				b1 := b.Data[(k+1)*n : (k+2)*n]
				b2 := b.Data[(k+2)*n : (k+3)*n]
				b3 := b.Data[(k+3)*n : (k+4)*n]
				for j, c := range crow {
					c += u0 * b0[j]
					c += u1 * b1[j]
					c += u2 * b2[j]
					c += u3 * b3[j]
					crow[j] = c
				}
			}
			for ; k < kk; k++ {
				u := arow[k]
				brow := b.Data[k*n : (k+1)*n]
				for j, bv := range brow {
					crow[j] += u * bv
				}
			}
		}
	}
	return dst
}

// MulABTBiasTo computes dst = a·bᵀ + bias without materializing the
// transpose, broadcasting bias (length b.Rows) across the rows of dst.
// Shapes: a is m×k, b is n×k, dst is m×n. dst must not alias a or b.
//
// Element (i, j) is the dot product of row i of a and row j of b,
// accumulated over k ascending in a single accumulator that starts at
// +0, with bias[j] added after the full sum: the bits of the textbook
// "y = W·x then y += b" loop. Where useAVX2 holds, mulABTAVX2 computes
// four destination columns per vector from 4×4 blocks of b transposed in
// registers; the last n mod 4 columns, and every column elsewhere, run
// mulABTCols.
func MulABTBiasTo(dst, a, b *Matrix, bias []float64) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulABTBiasTo inner dims %d vs %d", a.Cols, b.Cols))
	}
	checkShape("MulABTBiasTo dst", dst.Rows, dst.Cols, a.Rows, b.Rows)
	if len(bias) != b.Rows {
		panic(fmt.Sprintf("mat: MulABTBiasTo bias length %d, want %d", len(bias), b.Rows))
	}
	mulABT(dst, a, b, bias)
	return dst
}

// mulABT is MulABTBiasTo's kernel. The length checks stand in for the
// bounds checks the Go loop gets from slicing.
func mulABT(dst, a, b *Matrix, bias []float64) {
	m, kk, n := a.Rows, a.Cols, b.Rows
	j0 := 0
	if useAVX2 && m > 0 && kk > 0 && n >= 4 {
		if len(dst.Data) < m*n || len(a.Data) < m*kk || len(b.Data) < n*kk {
			panic(fmt.Sprintf("mat: matrix data shorter than its shape (%d, %d, %d elements for %dx%d = %dx%d · (%dx%d)ᵀ)",
				len(dst.Data), len(a.Data), len(b.Data), m, n, m, kk, n, kk))
		}
		mulABTAVX2(&dst.Data[0], &a.Data[0], &b.Data[0], &bias[0], m, kk, n)
		j0 = n &^ 3
	}
	mulABTCols(dst, a, b, bias, j0)
}

// mulABTCols is the Go form of mulABT for the destination columns j0…n−1:
// the fallback, and the columns the AVX2 kernel leaves. Its 2×4 register
// tile (8 accumulators plus 6 live operands) fits the 16 registers the
// compiler allocates on amd64; a 4×4 tile spills and measured about 1.8×
// slower. Whatever the tile, each element keeps one k-ascending
// accumulator and gets its bias last.
func mulABTCols(dst, a, b *Matrix, bias []float64, j0 int) {
	m, kk, n := a.Rows, a.Cols, b.Rows
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a.Data[i*kk : (i+1)*kk]
		a1 := a.Data[(i+1)*kk : (i+2)*kk]
		j := j0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*kk : (j+1)*kk]
			b1 := b.Data[(j+1)*kk : (j+2)*kk]
			b2 := b.Data[(j+2)*kk : (j+3)*kk]
			b3 := b.Data[(j+3)*kk : (j+4)*kk]
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			for k := 0; k < kk; k++ {
				v0, v1, v2, v3 := b0[k], b1[k], b2[k], b3[k]
				u0, u1 := a0[k], a1[k]
				c00 += u0 * v0
				c01 += u0 * v1
				c02 += u0 * v2
				c03 += u0 * v3
				c10 += u1 * v0
				c11 += u1 * v1
				c12 += u1 * v2
				c13 += u1 * v3
			}
			w0, w1, w2, w3 := bias[j], bias[j+1], bias[j+2], bias[j+3]
			c00, c01, c02, c03 = c00+w0, c01+w1, c02+w2, c03+w3
			c10, c11, c12, c13 = c10+w0, c11+w1, c12+w2, c13+w3
			d0 := dst.Data[i*n+j:]
			d1 := dst.Data[(i+1)*n+j:]
			d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
			d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
		}
		for ; j < n; j++ {
			brow := b.Data[j*kk : (j+1)*kk]
			var c0, c1 float64
			for k, bv := range brow {
				c0 += a0[k] * bv
				c1 += a1[k] * bv
			}
			w := bias[j]
			c0, c1 = c0+w, c1+w
			dst.Data[i*n+j] = c0
			dst.Data[(i+1)*n+j] = c1
		}
	}
	for ; i < m; i++ {
		arow := a.Data[i*kk : (i+1)*kk]
		crow := dst.Data[i*n : (i+1)*n]
		for j := j0; j < n; j++ {
			brow := b.Data[j*kk : (j+1)*kk]
			var c float64
			for k, bv := range brow {
				c += arow[k] * bv
			}
			crow[j] = c + bias[j]
		}
	}
}

// MulATBAddTo computes dst += aᵀ·b without materializing the transpose.
// Shapes: a is k×m, b is k×n, dst is m×n. dst must not alias a or b.
//
// Each dst element starts from its current value and accumulates the k
// terms in ascending order — bit-identical to the textbook loop that
// applies k rank-1 updates dst[i][j] += a[k][i]·b[k][j] one at a time,
// which is the row-ascending order gradient accumulation promises.
// Unrolling k by 4 keeps each dst element in a register across four
// updates.
func MulATBAddTo(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulATBAddTo outer dims %d vs %d", a.Rows, b.Rows))
	}
	checkShape("MulATBAddTo dst", dst.Rows, dst.Cols, a.Cols, b.Cols)
	kk, m, n := a.Rows, a.Cols, b.Cols
	if useAVX2 {
		gemmAccSIMD(dst, a, b, m, kk, n, 1, m)
		return dst
	}
	k := 0
	for ; k+4 <= kk; k += 4 {
		a0 := a.Data[k*m : (k+1)*m]
		a1 := a.Data[(k+1)*m : (k+2)*m]
		a2 := a.Data[(k+2)*m : (k+3)*m]
		a3 := a.Data[(k+3)*m : (k+4)*m]
		b0 := b.Data[k*n : (k+1)*n]
		b1 := b.Data[(k+1)*n : (k+2)*n]
		b2 := b.Data[(k+2)*n : (k+3)*n]
		b3 := b.Data[(k+3)*n : (k+4)*n]
		for i := 0; i < m; i++ {
			u0, u1, u2, u3 := a0[i], a1[i], a2[i], a3[i]
			crow := dst.Data[i*n : (i+1)*n]
			for j, c := range crow {
				c += u0 * b0[j]
				c += u1 * b1[j]
				c += u2 * b2[j]
				c += u3 * b3[j]
				crow[j] = c
			}
		}
	}
	for ; k < kk; k++ {
		arow := a.Data[k*m : (k+1)*m]
		brow := b.Data[k*n : (k+1)*n]
		for i, av := range arow {
			crow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return dst
}

// gemmAccSIMD runs the AVX2 kernel shared by MulAddTo and MulATBAddTo:
// c[i][j] += Σₖ a[i·ars+k·aks]·b[k][j] for the m×n destination, k
// ascending in one accumulator per element — the loop both Go kernels
// unroll by four over k. MulAddTo reads row i of a (ars = kk, aks = 1),
// MulATBAddTo column i (ars = 1, aks = m). The length checks stand in for
// the bounds checks the Go loops get from slicing.
func gemmAccSIMD(c, a, b *Matrix, m, kk, n, ars, aks int) {
	if m == 0 || kk == 0 || n == 0 {
		return
	}
	if len(c.Data) < m*n || len(a.Data) < m*kk || len(b.Data) < kk*n {
		panic(fmt.Sprintf("mat: matrix data shorter than its shape (%d, %d, %d elements for %dx%d += %dx%d · %dx%d)",
			len(c.Data), len(a.Data), len(b.Data), m, n, m, kk, kk, n))
	}
	gemmAccAVX2(&c.Data[0], &a.Data[0], &b.Data[0], m, kk, n, ars, aks)
}

// AdamStep applies one bias-corrected Adam update to the parameter
// values p from the gradients g, updating the moment estimates m and v in
// place. c1 and c2 are the bias corrections 1−β1ᵗ and 1−β2ᵗ. The four
// slices must have equal length. Per element, in this order:
//
//	m = β1·m + (1−β1)·g
//	v = β2·v + (1−β2)·g·g
//	p −= lr·(m/c1) / (√(v/c2) + ε)
func AdamStep(p, g, m, v []float64, beta1, beta2, lr, c1, c2, eps float64) {
	n := len(p)
	if len(g) != n || len(m) != n || len(v) != n {
		panic(fmt.Sprintf("mat: AdamStep length mismatch p=%d g=%d m=%d v=%d", n, len(g), len(m), len(v)))
	}
	i := 0
	if useAVX2 && n >= 4 {
		i = n &^ 3
		adamAVX2(&p[0], &g[0], &m[0], &v[0], i, beta1, 1-beta1, beta2, 1-beta2, lr, c1, c2, eps)
	}
	for ; i < n; i++ {
		gi := g[i]
		m[i] = beta1*m[i] + (1-beta1)*gi
		v[i] = beta2*v[i] + (1-beta2)*gi*gi
		mHat := m[i] / c1
		vHat := v[i] / c2
		p[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}

// tanhKernelOK reports whether TanhTo runs tanhAVX2 in this process.
// CPUID must show AVX2 and FMA, and the kernel must reproduce math.Tanh
// on tanhCheckInputs. CPUID alone is not enough: math.Exp fuses its
// multiply-adds only when the runtime reports FMA, so a process started
// with GODEBUG=cpu.fma=off computes other bits, and there TanhTo is the
// math.Tanh loop.
var tanhKernelOK = haveAVX2 && haveFMA && tanhKernelMatches()

// tanhCheckInputs is the init check's table, in blocks of four lanes:
// inputs on which math.Exp's fused and unfused paths give different
// tanh bits (first), inputs on which a fused rational function would
// differ from math/tanh.go's, and every branch with its boundaries.
var tanhCheckInputs = [...]float64{
	0.7253374879437113, -0.8774955335147736, 1.2235750152777203, 1.950948103213367,
	-2.305018861620635, 3.5888024171739414, 4.930922319883858, -6.330044941772416,
	0.5887032425008125, -0.45295651099240963, 0.5212609163047213, 0.5722540340810331,
	0.625, math.Nextafter(0.625, 0), -0.9716616266409789, math.Copysign(0, -1),
	tanhLarge, math.Nextafter(tanhLarge, 50), -5.095240701501843, 0,
	math.Inf(-1), math.NaN(), 5e-324, -1e300,
}

// tanhLarge is math/tanh.go's 0.5·MAXLOG, past which tanh is ±1.
const tanhLarge = 0.5 * 8.8029691931113054295988e+01

func tanhKernelMatches() bool {
	var got [len(tanhCheckInputs)]float64
	tanhAVX2(&got[0], &tanhCheckInputs[0], len(got))
	for i, x := range tanhCheckInputs {
		want := math.Tanh(x)
		if math.Float64bits(got[i]) != math.Float64bits(want) && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
			return false
		}
	}
	return true
}

// TanhTo sets dst[i] = math.Tanh(src[i]) for every i, bit for bit. The
// slices must have equal length; dst may be src, but must not overlap it
// otherwise. Where tanhKernelOK holds, the elements run four at a time
// through tanhAVX2 and a length that is not a multiple of four finishes
// in the math.Tanh loop, which is all that runs elsewhere.
func TanhTo(dst, src []float64) {
	n := len(src)
	if len(dst) != n {
		panic(fmt.Sprintf("mat: TanhTo length mismatch dst=%d src=%d", len(dst), n))
	}
	i := 0
	if useAVX2 && tanhKernelOK && n >= 4 {
		i = n &^ 3
		tanhAVX2(&dst[0], &src[0], i)
	}
	for ; i < n; i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// AddTo computes dst = a + b element-wise. Shapes must match; dst may
// alias either operand. It returns dst.
func AddTo(dst, a, b *Matrix) *Matrix {
	checkShape("AddTo b", b.Rows, b.Cols, a.Rows, a.Cols)
	checkShape("AddTo dst", dst.Rows, dst.Cols, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
	return dst
}

// AddColSumTo accumulates the column sums of a into dst: dst[j] += Σᵢ
// a[i][j], rows ascending — the batched form of repeated bias-gradient
// adds. dst must have length a.Cols.
func AddColSumTo(dst []float64, a *Matrix) []float64 {
	if len(dst) != a.Cols {
		panic(fmt.Sprintf("mat: AddColSumTo dst length %d, want %d", len(dst), a.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			dst[j] += v
		}
	}
	return dst
}

// Resize reshapes m to rows×cols in place, reusing the backing storage
// when its capacity allows and allocating otherwise. The contents are
// unspecified afterwards; callers must fully overwrite them.
func (m *Matrix) Resize(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) >= n {
		m.Data = m.Data[:n]
	} else {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols = rows, cols
	return m
}
