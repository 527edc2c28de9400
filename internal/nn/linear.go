package nn

import (
	"math/rand"

	"vtmig/internal/mat"
)

// Linear is a fully connected layer: y = W·x + b.
type Linear struct {
	in, out int
	w       *Param // out×in, row-major
	b       *Param // out

	// wView and gwView are persistent matrix views over the parameter
	// storage; building them once keeps the hot path allocation-free.
	wView, gwView mat.Matrix

	// caches for forward/backward, grown to the largest batch seen and
	// reused across calls
	xCache  mat.Matrix // batch×in copy of the last batched input
	outMat  mat.Matrix // batch×out
	gradMat mat.Matrix // batch×in
}

// NewLinear returns a Linear layer with Xavier-uniform weights and zero
// biases. The name prefixes the parameter names ("<name>.W", "<name>.b").
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		in:  in,
		out: out,
		w:   newParam(name+".W", in*out),
		b:   newParam(name+".b", out),
	}
	l.wView = *mat.FromSlice(out, in, l.w.Value)
	l.gwView = *mat.FromSlice(out, in, l.w.Grad)
	l.wView.XavierInit(rng, in, out)
	return l
}

// ForwardBatch computes Y = X·Wᵀ + b for a batch of rows and keeps a copy
// of X for BackwardBatch. The returned matrix is owned by the layer and
// overwritten by the next call. It runs mat.MulABTBiasTo, which reads W in
// place and gives element (i, j) one accumulator from +0 over k ascending
// with the bias added last, so a row's bits do not depend on the batch
// size or on the other rows.
func (l *Linear) ForwardBatch(x *mat.Matrix) *mat.Matrix {
	checkLen("Linear", "batch input width", x.Cols, l.in)
	l.xCache.Resize(x.Rows, x.Cols)
	copy(l.xCache.Data, x.Data)
	l.outMat.Resize(x.Rows, l.out)
	mat.MulABTBiasTo(&l.outMat, x, &l.wView, l.b.Value)
	return &l.outMat
}

// BackwardBatch accumulates dW += dYᵀ·X and db += column sums of dY, and
// returns dX = dY·W. Gradient contributions are accumulated row-ascending
// (dW += dy⊗x and db += dy one row at a time, each element k-ascending
// from its current value), so one call over a batch is bit-identical to
// one-row calls over its rows in order. Element (i, j) of dX sums
// dy[i][k]·W[k][j] over k ascending from +0. The returned matrix is owned
// by the layer.
func (l *Linear) BackwardBatch(grad *mat.Matrix) *mat.Matrix {
	l.AccumulateGradsBatch(grad)
	l.gradMat.Resize(grad.Rows, l.in)
	mat.MulTo(&l.gradMat, grad, &l.wView)
	return &l.gradMat
}

// AccumulateGradsBatch is BackwardBatch without the input gradient: it
// accumulates dW and db, with the same bits, and skips the dY·W product
// that a network's first layer would throw away.
func (l *Linear) AccumulateGradsBatch(grad *mat.Matrix) {
	checkLen("Linear", "batch grad width", grad.Cols, l.out)
	checkLen("Linear", "batch grad rows", grad.Rows, l.xCache.Rows)
	mat.MulATBAddTo(&l.gwView, grad, &l.xCache)
	mat.AddColSumTo(l.b.Grad, grad)
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.w, l.b} }
