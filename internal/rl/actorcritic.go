package rl

import (
	"fmt"
	"math/rand"

	"vtmig/internal/mat"
	"vtmig/internal/nn"
)

// ActorCritic is the paper's shared-parameter policy/value network: a
// common trunk (two hidden layers of 64 tanh units by default) feeding a
// policy-mean head and a state-value head, plus a state-independent
// learnable log-standard-deviation for the Gaussian policy.
type ActorCritic struct {
	obsDim, actDim int

	trunk   []nn.Module // Linear+Tanh pairs
	first   *nn.Linear  // trunk[0], whose input gradient nobody reads
	meanHd  *nn.Linear
	valueHd *nn.Linear
	logStd  *nn.Param

	params []*nn.Param

	// scratch reused across calls, grown to the largest batch seen
	meanOutB   mat.Matrix // batch×actDim, tanh-squashed means
	meanGradB  mat.Matrix // batch×actDim
	valueDyB   mat.Matrix // batch×1
	trunkGradB mat.Matrix // batch×trunkOut
}

// NewActorCritic builds the network. hidden lists the hidden-layer widths
// (the paper uses {64, 64}); act is the hidden activation; initLogStd
// seeds the exploration scale.
func NewActorCritic(obsDim, actDim int, hidden []int, act nn.Activation, initLogStd float64, rng *rand.Rand) *ActorCritic {
	if obsDim <= 0 || actDim <= 0 {
		panic(fmt.Sprintf("rl: invalid dims obs=%d act=%d", obsDim, actDim))
	}
	if len(hidden) == 0 {
		panic("rl: ActorCritic needs at least one hidden layer")
	}
	ac := &ActorCritic{obsDim: obsDim, actDim: actDim}
	prev := obsDim
	for i, h := range hidden {
		lin := nn.NewLinear(fmt.Sprintf("trunk.l%d", i), prev, h, rng)
		ac.trunk = append(ac.trunk, lin, nn.NewActivation(act, h))
		prev = h
	}
	ac.first = ac.trunk[0].(*nn.Linear)
	ac.meanHd = nn.NewLinear("head.mean", prev, actDim, rng)
	ac.valueHd = nn.NewLinear("head.value", prev, 1, rng)
	ac.logStd = &nn.Param{
		Name:  "policy.logstd",
		Value: make([]float64, actDim),
		Grad:  make([]float64, actDim),
	}
	for i := range ac.logStd.Value {
		ac.logStd.Value[i] = initLogStd
	}
	for _, m := range ac.trunk {
		ac.params = append(ac.params, m.Params()...)
	}
	ac.params = append(ac.params, ac.meanHd.Params()...)
	ac.params = append(ac.params, ac.valueHd.Params()...)
	ac.params = append(ac.params, ac.logStd)
	return ac
}

// ForwardBatch computes the policy mean, the log-std vector, and the
// state value for every observation row in one pass: a minibatch update,
// a collection step over the live envs, or one row when the policy acts
// on a single observation (a posted quote, a critic bootstrap). The mean
// is tanh-squashed into (-1, 1) — the normalized action space — which
// prevents the saturation runaway where an unbounded mean drifts past
// the action clamp and all gradients die. Row b of the returned mean
// matrix and element b of the returned value slice depend only on
// obs.Row(b), bit for bit, whatever the batch size. The returned mean
// matrix and value slice alias internal buffers overwritten by the next
// call; logStd aliases the parameter.
func (ac *ActorCritic) ForwardBatch(obs *mat.Matrix) (mean *mat.Matrix, logStd []float64, values []float64) {
	if obs.Cols != ac.obsDim {
		panic(fmt.Sprintf("rl: observation width %d, want %d", obs.Cols, ac.obsDim))
	}
	h := obs
	for _, m := range ac.trunk {
		h = m.ForwardBatch(h)
	}
	raw := ac.meanHd.ForwardBatch(h)
	ac.meanOutB.Resize(raw.Rows, raw.Cols)
	mat.TanhTo(ac.meanOutB.Data, raw.Data)
	// The value head's batch×1 output is the value slice itself.
	return &ac.meanOutB, ac.logStd.Value, ac.valueHd.ForwardBatch(h).Data
}

// BackwardBatch accumulates gradients for a whole minibatch given
// per-row dLoss/dMean (with respect to the squashed mean), dLoss/dLogStd,
// and dLoss/dValue for the rows of the immediately preceding ForwardBatch
// (nn.Module's ordering: no forward pass in between). Gradients
// accumulate row-ascending, so one call is bit-identical to one-row
// ForwardBatch/BackwardBatch calls over its rows in order.
func (ac *ActorCritic) BackwardBatch(dMean, dLogStd *mat.Matrix, dValue []float64) {
	batch := ac.meanOutB.Rows
	if dMean.Rows != batch || dLogStd.Rows != batch || len(dValue) != batch {
		panic(fmt.Sprintf("rl: batch gradient sizes %d/%d/%d, want %d",
			dMean.Rows, dLogStd.Rows, len(dValue), batch))
	}
	ac.meanGradB.Resize(batch, ac.actDim)
	for i, g := range dMean.Data {
		sq := ac.meanOutB.Data[i]
		ac.meanGradB.Data[i] = g * (1 - sq*sq)
	}
	gm := ac.meanHd.BackwardBatch(&ac.meanGradB)
	ac.valueDyB.Resize(batch, 1)
	copy(ac.valueDyB.Data, dValue)
	gv := ac.valueHd.BackwardBatch(&ac.valueDyB)
	ac.trunkGradB.Resize(batch, gm.Cols)
	mat.AddTo(&ac.trunkGradB, gm, gv)
	g := &ac.trunkGradB
	for i := len(ac.trunk) - 1; i > 0; i-- {
		g = ac.trunk[i].BackwardBatch(g)
	}
	ac.first.AccumulateGradsBatch(g)
	// The log-std gradient folds rows ascending with one running
	// accumulator per dimension, as one-row calls would.
	for j := 0; j < ac.actDim; j++ {
		acc := ac.logStd.Grad[j]
		for b := 0; b < dLogStd.Rows; b++ {
			acc += dLogStd.At(b, j)
		}
		ac.logStd.Grad[j] = acc
	}
}

// Params returns every learnable parameter (trunk, heads, log-std).
func (ac *ActorCritic) Params() []*nn.Param { return ac.params }

// ObsDim returns the observation width.
func (ac *ActorCritic) ObsDim() int { return ac.obsDim }

// ActDim returns the action width.
func (ac *ActorCritic) ActDim() int { return ac.actDim }
