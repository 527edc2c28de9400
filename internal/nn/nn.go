// Package nn implements the small feed-forward neural-network substrate
// used by the DRL incentive mechanism: linear layers, activations,
// gradient clipping, the Adam optimizer, and checkpointing.
//
// A module has one forward pass, ForwardBatch, over a batch of rows: a
// policy acting on one observation runs it as a batch of one, and a
// learner runs it over a minibatch and then BackwardBatch over the same
// rows. Gradients are computed only by BackwardBatch, and a one-row
// batch is the per-sample case. Gradients start at zero and accumulate
// across calls until an optimizer step (Adam.Step) applies them and
// resets them to +0.
package nn

import (
	"fmt"

	"vtmig/internal/mat"
)

// Param is one learnable tensor: a flat value slice and its accumulated
// gradient. BackwardBatch accumulates into Grad; Adam.Step updates Value
// in place and resets Grad to +0.
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

// Module is a differentiable computation with learnable parameters.
// Each output row's bits depend only on the same input row, so a row
// computed alone (a batch of one) equals that row computed in any batch.
//
// A BackwardBatch reads the caches of the ForwardBatch before it: it
// must follow its own ForwardBatch with no forward pass in between, as
// the PPO minibatch update (rl), the only caller, does. A forward pass
// at another batch size in between makes BackwardBatch panic on the row
// count; one at the same size would silently read the wrong rows.
type Module interface {
	// ForwardBatch computes the module output for every row of x and
	// caches what BackwardBatch needs. The returned matrix is owned by the
	// module and overwritten by the next call.
	ForwardBatch(x *mat.Matrix) *mat.Matrix
	// BackwardBatch takes dLoss/dOutput rows, accumulates parameter
	// gradients in row-ascending order, and returns dLoss/dInput rows. It
	// must directly follow the ForwardBatch over the same rows. The
	// returned matrix is owned by the module.
	BackwardBatch(grad *mat.Matrix) *mat.Matrix
	// Params returns the module's learnable parameters.
	Params() []*Param
}

// checkLen panics when a slice given to a module has the wrong length.
func checkLen(module string, what string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("nn: %s %s length %d, want %d", module, what, got, want))
	}
}
