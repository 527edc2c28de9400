package rl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vtmig/internal/mat"
	"vtmig/internal/nn"
)

// The tests in this file pin the first rule of the determinism contract
// at the actor–critic level: the batched pass a minibatch update runs
// accumulates gradients bit-identically to per-row Forward/Backward calls
// in row order. "Bit-identical" is meant literally — comparisons go
// through math.Float64bits, not a tolerance.

// paramsEqualBits reports the first parameter element where a and b
// differ bitwise, or ok.
func paramsEqualBits(a, b []*nn.Param) (string, bool) {
	if len(a) != len(b) {
		return fmt.Sprintf("param count %d vs %d", len(a), len(b)), false
	}
	for i := range a {
		for j := range a[i].Value {
			if math.Float64bits(a[i].Value[j]) != math.Float64bits(b[i].Value[j]) {
				return fmt.Sprintf("param %q element %d: %x vs %x (%v vs %v)",
					a[i].Name, j,
					math.Float64bits(a[i].Value[j]), math.Float64bits(b[i].Value[j]),
					a[i].Value[j], b[i].Value[j]), false
			}
		}
	}
	return "", true
}

// TestActorCriticBackwardBatchMatchesBackward is the rule-1 property at
// the network the PPO update trains: over random shapes, activations and
// batch sizes on both sides of nn's transposed-weights threshold, with
// occasional −0 value gradients, ForwardBatch + BackwardBatch leaves
// every parameter gradient bit-identical to per-row Forward/Backward in
// row order.
func TestActorCriticBackwardBatchMatchesBackward(t *testing.T) {
	acts := []nn.Activation{nn.ActIdentity, nn.ActTanh, nn.ActReLU, nn.ActSigmoid, nn.ActSoftplus}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		obsDim, actDim := 1+rng.Intn(12), 1+rng.Intn(3)
		hidden := make([]int, 1+rng.Intn(2))
		for i := range hidden {
			hidden[i] = 1 + rng.Intn(40)
		}
		act := acts[rng.Intn(len(acts))]
		rows := 1 + rng.Intn(70)
		seed := rng.Int63()
		build := func() *ActorCritic {
			return NewActorCritic(obsDim, actDim, hidden, act, -0.5, rand.New(rand.NewSource(seed)))
		}

		obs, dMean, dLogStd := mat.New(rows, obsDim), mat.New(rows, actDim), mat.New(rows, actDim)
		obs.Randomize(rng, 2)
		dMean.Randomize(rng, 1)
		dLogStd.Randomize(rng, 1)
		dValue := make([]float64, rows)
		for r := range dValue {
			dValue[r] = rng.NormFloat64()
			if rng.Intn(5) == 0 {
				dValue[r] = math.Copysign(0, -1)
			}
		}

		seq := build()
		nn.ZeroGrads(seq.Params())
		for r := 0; r < rows; r++ {
			seq.Forward(obs.Row(r))
			seq.Backward(dMean.Row(r), dLogStd.Row(r), dValue[r])
		}
		bat := build()
		nn.ZeroGrads(bat.Params())
		bat.ForwardBatch(obs)
		bat.BackwardBatch(dMean, dLogStd, dValue)

		for i, p := range bat.Params() {
			want := seq.Params()[i]
			for j, g := range p.Grad {
				if math.Float64bits(g) != math.Float64bits(want.Grad[j]) {
					t.Fatalf("trial %d (obs=%d act=%d hidden=%v %v rows=%d): %s grad[%d] batch %x != per-row %x",
						trial, obsDim, actDim, hidden, act, rows, p.Name, j,
						math.Float64bits(g), math.Float64bits(want.Grad[j]))
				}
			}
		}
	}
}
