package nn

import (
	"fmt"
	"math"

	"vtmig/internal/mat"
)

// Activation identifies an element-wise nonlinearity.
type Activation int

// Supported activations. ActTanh is the paper's choice for the two hidden
// layers; the others support ablations and reuse.
const (
	ActIdentity Activation = iota + 1
	ActTanh
	ActReLU
	ActSigmoid
	ActSoftplus
)

// String returns the lower-case activation name.
func (a Activation) String() string {
	switch a {
	case ActIdentity:
		return "identity"
	case ActTanh:
		return "tanh"
	case ActReLU:
		return "relu"
	case ActSigmoid:
		return "sigmoid"
	case ActSoftplus:
		return "softplus"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// activationLayer applies an element-wise nonlinearity. It has no
// parameters. Its backward pass reads the cached outputs, except for
// ReLU and softplus, whose derivatives read the input: only those two
// cache it.
type activationLayer struct {
	kind Activation
	dim  int

	// caches, grown to the largest batch seen and reused
	inMat   mat.Matrix // ReLU and softplus only
	outMat  mat.Matrix
	gradMat mat.Matrix
}

// NewActivation returns an activation module of the given kind and width.
func NewActivation(kind Activation, dim int) Module {
	switch kind {
	case ActIdentity, ActTanh, ActReLU, ActSigmoid, ActSoftplus:
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(kind)))
	}
	return &activationLayer{kind: kind, dim: dim}
}

// derivReadsInput reports whether kind's derivative is computed from the
// layer input rather than its output.
func derivReadsInput(kind Activation) bool { return kind == ActReLU || kind == ActSoftplus }

// ForwardBatch applies the nonlinearity to every element of x. The
// returned matrix is owned by the layer.
func (a *activationLayer) ForwardBatch(x *mat.Matrix) *mat.Matrix {
	checkLen(a.kind.String(), "batch input width", x.Cols, a.dim)
	if derivReadsInput(a.kind) {
		a.inMat.Resize(x.Rows, x.Cols)
		copy(a.inMat.Data, x.Data)
	}
	a.outMat.Resize(x.Rows, x.Cols)
	a.apply(a.outMat.Data, x.Data)
	return &a.outMat
}

// BackwardBatch multiplies grad element-wise by the activation derivative
// at the cached batch. The returned matrix is owned by the layer.
func (a *activationLayer) BackwardBatch(grad *mat.Matrix) *mat.Matrix {
	checkLen(a.kind.String(), "batch grad width", grad.Cols, a.dim)
	checkLen(a.kind.String(), "batch grad rows", grad.Rows, a.outMat.Rows)
	a.gradMat.Resize(grad.Rows, grad.Cols)
	a.backward(a.gradMat.Data, grad.Data, a.inMat.Data, a.outMat.Data)
	return &a.gradMat
}

// apply writes the nonlinearity of each element of x into dst. Tanh goes
// through mat.TanhTo, which returns math.Tanh's bits.
func (a *activationLayer) apply(dst, x []float64) {
	if a.kind == ActTanh {
		mat.TanhTo(dst, x)
		return
	}
	for i, v := range x {
		dst[i] = activate(a.kind, v)
	}
}

// backward writes grad times the derivative into dst, reading the cached
// inputs in (ReLU, softplus) or outputs out (the others). Tanh, the
// paper's hidden activation, is one g·(1−out²) loop.
func (a *activationLayer) backward(dst, grad, in, out []float64) {
	if a.kind == ActTanh {
		for i, g := range grad {
			o := out[i]
			dst[i] = g * (1 - o*o)
		}
		return
	}
	cached := out
	if derivReadsInput(a.kind) {
		cached = in
	}
	for i, g := range grad {
		dst[i] = g * activateDeriv(a.kind, cached[i])
	}
}

func (a *activationLayer) Params() []*Param { return nil }

// activate evaluates the nonlinearity at v.
func activate(kind Activation, v float64) float64 {
	switch kind {
	case ActIdentity:
		return v
	case ActTanh:
		return math.Tanh(v)
	case ActReLU:
		if v > 0 {
			return v
		}
		return 0
	case ActSigmoid:
		return 1 / (1 + math.Exp(-v))
	case ActSoftplus:
		// Numerically stable log(1+e^v).
		if v > 30 {
			return v
		}
		return math.Log1p(math.Exp(v))
	default:
		panic("nn: unreachable activation kind")
	}
}

// activateDeriv evaluates d activate/dv from the cached value c its kind
// reads: the input v for ReLU and softplus, the output for identity and
// sigmoid. Tanh's derivative is inlined in backward.
func activateDeriv(kind Activation, c float64) float64 {
	switch kind {
	case ActIdentity:
		return 1
	case ActReLU:
		if c > 0 {
			return 1
		}
		return 0
	case ActSigmoid:
		return c * (1 - c)
	case ActSoftplus:
		return 1 / (1 + math.Exp(-c))
	default:
		panic("nn: unreachable activation kind")
	}
}
