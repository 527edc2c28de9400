package mat

import "fmt"

// DivSubInto computes the fused quotient-difference dst = x/s − y
// element-wise: dst[i] = x[i]/s − y[i]. dst may alias x or y. The
// per-element expression is exactly one division and one subtraction —
// no reciprocal-multiply rewrite — so results are bit-identical to the
// scalar form a/s − b evaluated element by element.
func DivSubInto(dst, x []float64, s float64, y []float64) []float64 {
	if len(x) != len(y) || len(dst) != len(x) {
		panic(fmt.Sprintf("mat: DivSubInto length mismatch dst=%d x=%d y=%d", len(dst), len(x), len(y)))
	}
	for i := range dst {
		dst[i] = x[i]/s - y[i]
	}
	return dst
}

// ClampMinInto computes dst[i] = x[i] floored at lo, using the branch
// form `if v < lo { v = lo }` rather than math.Max — the branch keeps
// −0.0 and NaN inputs bit-identical to a scalar `if v < lo` clamp
// (math.Max(+0, −0) would flip the sign bit). dst may alias x.
func ClampMinInto(dst, x []float64, lo float64) []float64 {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("mat: ClampMinInto length mismatch %d vs %d", len(dst), len(x)))
	}
	for i, v := range x {
		if v < lo {
			v = lo
		}
		dst[i] = v
	}
	return dst
}
