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
// parameters.
type activationLayer struct {
	kind    Activation
	dim     int
	lastIn  []float64
	lastOut []float64
	gradBuf []float64

	// batched caches, grown to the largest batch seen and reused
	inMat   mat.Matrix
	outMat  mat.Matrix
	gradMat mat.Matrix
}

// NewActivation returns an activation module of the given kind and width.
func NewActivation(kind Activation, dim int) BatchModule {
	switch kind {
	case ActIdentity, ActTanh, ActReLU, ActSigmoid, ActSoftplus:
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(kind)))
	}
	return &activationLayer{
		kind:    kind,
		dim:     dim,
		lastIn:  make([]float64, dim),
		lastOut: make([]float64, dim),
		gradBuf: make([]float64, dim),
	}
}

func (a *activationLayer) Forward(x []float64) []float64 {
	checkLen(a.kind.String(), "input", len(x), a.dim)
	copy(a.lastIn, x)
	for i, v := range x {
		a.lastOut[i] = activate(a.kind, v)
	}
	return a.lastOut
}

func (a *activationLayer) Backward(grad []float64) []float64 {
	checkLen(a.kind.String(), "output grad", len(grad), a.dim)
	for i, g := range grad {
		a.gradBuf[i] = g * activateDeriv(a.kind, a.lastIn[i], a.lastOut[i])
	}
	return a.gradBuf
}

// ForwardBatch applies the nonlinearity to every element of x. The
// returned matrix is owned by the layer.
func (a *activationLayer) ForwardBatch(x *mat.Matrix) *mat.Matrix {
	checkLen(a.kind.String(), "batch input width", x.Cols, a.dim)
	a.inMat.Resize(x.Rows, x.Cols)
	copy(a.inMat.Data, x.Data)
	a.outMat.Resize(x.Rows, x.Cols)
	for i, v := range x.Data {
		a.outMat.Data[i] = activate(a.kind, v)
	}
	return &a.outMat
}

// BackwardBatch multiplies grad element-wise by the activation derivative
// at the cached batched input. The returned matrix is owned by the layer.
func (a *activationLayer) BackwardBatch(grad *mat.Matrix) *mat.Matrix {
	checkLen(a.kind.String(), "batch grad width", grad.Cols, a.dim)
	checkLen(a.kind.String(), "batch grad rows", grad.Rows, a.inMat.Rows)
	a.gradMat.Resize(grad.Rows, grad.Cols)
	for i, g := range grad.Data {
		a.gradMat.Data[i] = g * activateDeriv(a.kind, a.inMat.Data[i], a.outMat.Data[i])
	}
	return &a.gradMat
}

func (a *activationLayer) Params() []*Param { return nil }
func (a *activationLayer) InDim() int       { return a.dim }
func (a *activationLayer) OutDim() int      { return a.dim }

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

// activateDeriv evaluates d activate/dv given the cached input and output.
func activateDeriv(kind Activation, in, out float64) float64 {
	switch kind {
	case ActIdentity:
		return 1
	case ActTanh:
		return 1 - out*out
	case ActReLU:
		if in > 0 {
			return 1
		}
		return 0
	case ActSigmoid:
		return out * (1 - out)
	case ActSoftplus:
		return 1 / (1 + math.Exp(-in))
	default:
		panic("nn: unreachable activation kind")
	}
}
