// Package nn implements the small feed-forward neural-network substrate
// used by the DRL incentive mechanism: linear layers, activations,
// multi-layer perceptrons with manual backpropagation, gradient clipping,
// the Adam optimizer, and checkpointing.
//
// The package is sample-at-a-time: a call to Backward consumes the caches
// written by the immediately preceding call to Forward on the same module.
// Callers that process minibatches interleave Forward/Backward per sample
// and let gradients accumulate, then apply an optimizer step.
package nn

import (
	"fmt"

	"vtmig/internal/mat"
)

// Param is one learnable tensor: a flat value slice and its accumulated
// gradient. Optimizers mutate Value in place; Backward accumulates into
// Grad; ZeroGrads resets Grad.
type Param struct {
	// Name identifies the parameter for checkpoints, e.g. "trunk.l0.W".
	Name string
	// Value is the flat parameter storage (row-major for matrices).
	Value []float64
	// Grad is the accumulated gradient, same length as Value.
	Grad []float64
}

// newParam allocates a named parameter of length n with zero value and
// gradient.
func newParam(name string, n int) *Param {
	return &Param{Name: name, Value: make([]float64, n), Grad: make([]float64, n)}
}

// ZeroGrads resets the gradient of every parameter to zero.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// BatchModule is a Module that can additionally process a whole minibatch
// of rows in one call, backed by the mat kernel layer. Batched calls keep
// separate caches from the sample-at-a-time path, so interleaving Forward
// and ForwardBatch on the same module is safe, and their outputs are
// bit-identical row for row. Every module in this package is a
// BatchModule; the split interface only exists so that sample-at-a-time
// code does not need to know about batching.
type BatchModule interface {
	Module
	// ForwardBatch computes the module output for every row of x and
	// caches what BackwardBatch needs. The returned matrix is owned by the
	// module and overwritten by the next batched call.
	ForwardBatch(x *mat.Matrix) *mat.Matrix
	// BackwardBatch takes dLoss/dOutput rows, accumulates parameter
	// gradients in row-ascending order (bit-identical to per-sample
	// Backward calls), and returns dLoss/dInput rows. It must follow a
	// matching ForwardBatch.
	BackwardBatch(grad *mat.Matrix) *mat.Matrix
}

// Module is a differentiable computation with learnable parameters.
type Module interface {
	// Forward computes the module output for input x and caches whatever
	// Backward needs. The returned slice is owned by the module and is
	// overwritten by the next Forward call.
	Forward(x []float64) []float64
	// Backward takes dLoss/dOutput, accumulates parameter gradients, and
	// returns dLoss/dInput. It must be called after a matching Forward.
	// The returned slice is owned by the module.
	Backward(grad []float64) []float64
	// Params returns the module's learnable parameters.
	Params() []*Param
	// InDim and OutDim report the expected input and output widths.
	InDim() int
	OutDim() int
}

// checkLen panics when a slice given to a module has the wrong length.
func checkLen(module string, what string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("nn: %s %s length %d, want %d", module, what, got, want))
	}
}
