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

	// caches for sample-at-a-time backward
	lastX   []float64
	outBuf  []float64
	gradBuf []float64

	// caches for batched forward/backward, grown to the largest batch seen
	// and reused across minibatches
	xCache  mat.Matrix // batch×in copy of the last batched input
	outMat  mat.Matrix // batch×out
	gradMat mat.Matrix // batch×in
	wT      mat.Matrix // in×out copy of Wᵀ, rebuilt by every large ForwardBatch
}

// NewLinear returns a Linear layer with Xavier-uniform weights and zero
// biases. The name prefixes the parameter names ("<name>.W", "<name>.b").
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		in:      in,
		out:     out,
		w:       newParam(name+".W", in*out),
		b:       newParam(name+".b", out),
		lastX:   make([]float64, in),
		outBuf:  make([]float64, out),
		gradBuf: make([]float64, in),
	}
	l.wView = *mat.FromSlice(out, in, l.w.Value)
	l.gwView = *mat.FromSlice(out, in, l.w.Grad)
	l.wView.XavierInit(rng, in, out)
	return l
}

// Forward computes W·x + b.
func (l *Linear) Forward(x []float64) []float64 {
	checkLen("Linear", "input", len(x), l.in)
	copy(l.lastX, x)
	// A stack copy of the view keeps the shape fields in registers across
	// the kernel call; going through the long-lived &l.wView pointer
	// measurably pessimizes MulVec.
	w := l.wView
	w.MulVec(x, l.outBuf)
	mat.AddInto(l.outBuf, l.outBuf, l.b.Value)
	return l.outBuf
}

// Backward accumulates dW += grad ⊗ x and db += grad, and returns Wᵀ·grad.
func (l *Linear) Backward(grad []float64) []float64 {
	checkLen("Linear", "output grad", len(grad), l.out)
	gw := l.gwView
	gw.AddOuterScaled(grad, l.lastX, 1)
	mat.AddInto(l.b.Grad, l.b.Grad, grad)
	w := l.wView
	w.MulVecT(grad, l.gradBuf)
	return l.gradBuf
}

// transposedMinRows is the smallest batch ForwardBatch multiplies through
// a transposed copy of W. Below it, copying W costs about as much as the
// product itself.
const transposedMinRows = 4

// ForwardBatch computes Y = X·Wᵀ + b for a batch of rows. The returned
// matrix is owned by the layer and overwritten by the next batched call;
// its element (i, j) is bit-identical to Forward(X.Row(i))[j].
//
// Batches of transposedMinRows or more rows copy W into Wᵀ and run
// Y = X·(Wᵀ) through MulTo, then add the bias. That is the order
// MulABTBiasTo uses for smaller batches (zero start, k ascending, bias
// last), so both routes give the same bits; MulTo's inner loop is the
// one with a SIMD path.
func (l *Linear) ForwardBatch(x *mat.Matrix) *mat.Matrix {
	checkLen("Linear", "batch input width", x.Cols, l.in)
	l.xCache.Resize(x.Rows, x.Cols)
	copy(l.xCache.Data, x.Data)
	l.outMat.Resize(x.Rows, l.out)
	if x.Rows < transposedMinRows {
		mat.MulABTBiasTo(&l.outMat, x, &l.wView, l.b.Value)
		return &l.outMat
	}
	l.wT.Resize(l.in, l.out)
	mat.TransposeTo(&l.wT, &l.wView)
	mat.MulTo(&l.outMat, x, &l.wT)
	for i := 0; i < x.Rows; i++ {
		row := l.outMat.Row(i)
		for j, bj := range l.b.Value {
			row[j] += bj
		}
	}
	return &l.outMat
}

// BackwardBatch accumulates dW += dYᵀ·X and db += column sums of dY, and
// returns dX = dY·W. Gradient contributions are accumulated row-ascending,
// bit-identical to calling Backward once per batch row in order. The
// returned matrix is owned by the layer.
func (l *Linear) BackwardBatch(grad *mat.Matrix) *mat.Matrix {
	checkLen("Linear", "batch grad width", grad.Cols, l.out)
	checkLen("Linear", "batch grad rows", grad.Rows, l.xCache.Rows)
	mat.MulATBAddTo(&l.gwView, grad, &l.xCache)
	mat.AddColSumTo(l.b.Grad, grad)
	l.gradMat.Resize(grad.Rows, l.in)
	mat.MulTo(&l.gradMat, grad, &l.wView)
	return &l.gradMat
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.w, l.b} }

// InDim returns the input width.
func (l *Linear) InDim() int { return l.in }

// OutDim returns the output width.
func (l *Linear) OutDim() int { return l.out }
