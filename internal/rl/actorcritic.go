package rl

import (
	"fmt"
	"math"
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

	trunk   []nn.BatchModule // Linear+Tanh pairs
	meanHd  *nn.Linear
	valueHd *nn.Linear
	logStd  *nn.Param

	params []*nn.Param

	// scratch buffers reused across sample-at-a-time calls
	meanOut      []float64
	meanGradBuf  []float64
	valueGradBuf []float64
	trunkGradBuf []float64
	dValBuf      [1]float64

	// scratch reused across batched calls, grown to the largest batch seen
	meanOutB   mat.Matrix // batch×actDim, tanh-squashed means
	valuesB    []float64  // batch state values
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

	ac.meanOut = make([]float64, actDim)
	ac.meanGradBuf = make([]float64, actDim)
	ac.valueGradBuf = make([]float64, prev)
	ac.trunkGradBuf = make([]float64, prev)
	return ac
}

// Forward computes the policy mean, the log-std vector, and the state
// value for an observation, caching activations for a following Backward.
// The mean is tanh-squashed into (-1, 1) — the normalized action space —
// which prevents the saturation runaway where an unbounded mean drifts
// past the action clamp and all gradients die. The returned slices alias
// internal buffers.
func (ac *ActorCritic) Forward(obs []float64) (mean, logStd []float64, value float64) {
	if len(obs) != ac.obsDim {
		panic(fmt.Sprintf("rl: observation length %d, want %d", len(obs), ac.obsDim))
	}
	h := obs
	for _, m := range ac.trunk {
		h = m.Forward(h)
	}
	raw := ac.meanHd.Forward(h)
	for i, v := range raw {
		ac.meanOut[i] = math.Tanh(v)
	}
	value = ac.valueHd.Forward(h)[0]
	return ac.meanOut, ac.logStd.Value, value
}

// Backward accumulates gradients given dLoss/dMean (with respect to the
// squashed mean), dLoss/dLogStd, and dLoss/dValue for the observation
// passed to the immediately preceding Forward call.
func (ac *ActorCritic) Backward(dMean, dLogStd []float64, dValue float64) {
	for i, g := range dMean {
		// d tanh(u)/du = 1 - tanh(u)².
		ac.meanGradBuf[i] = g * (1 - ac.meanOut[i]*ac.meanOut[i])
	}
	gm := ac.meanHd.Backward(ac.meanGradBuf)
	ac.dValBuf[0] = dValue
	gv := ac.valueHd.Backward(ac.dValBuf[:])
	for i := range ac.trunkGradBuf {
		ac.trunkGradBuf[i] = gm[i] + gv[i]
	}
	g := ac.trunkGradBuf
	for i := len(ac.trunk) - 1; i >= 0; i-- {
		g = ac.trunk[i].Backward(g)
	}
	for i, d := range dLogStd {
		ac.logStd.Grad[i] += d
	}
}

// ForwardBatch evaluates the policy and value heads for every observation
// row in one batched pass — the entry point for minibatch updates and for
// batched policy evaluation across rollout steps. Row b of the returned
// mean matrix and element b of the returned value slice are bit-identical
// to Forward(obs.Row(b)). The returned mean matrix and value slice alias
// internal buffers overwritten by the next batched call; logStd aliases
// the parameter.
func (ac *ActorCritic) ForwardBatch(obs *mat.Matrix) (mean *mat.Matrix, logStd []float64, values []float64) {
	if obs.Cols != ac.obsDim {
		panic(fmt.Sprintf("rl: batch observation width %d, want %d", obs.Cols, ac.obsDim))
	}
	h := obs
	for _, m := range ac.trunk {
		h = m.ForwardBatch(h)
	}
	raw := ac.meanHd.ForwardBatch(h)
	ac.meanOutB.Resize(raw.Rows, raw.Cols)
	for i, v := range raw.Data {
		ac.meanOutB.Data[i] = math.Tanh(v)
	}
	vals := ac.valueHd.ForwardBatch(h)
	ac.valuesB = growSlice(ac.valuesB, vals.Rows)
	copy(ac.valuesB, vals.Data)
	return &ac.meanOutB, ac.logStd.Value, ac.valuesB
}

// BackwardBatch accumulates gradients for a whole minibatch given
// per-row dLoss/dMean, dLoss/dLogStd, and dLoss/dValue from the
// immediately preceding ForwardBatch. Gradients accumulate row-ascending,
// bit-identical to calling Forward/Backward once per row in order.
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
	for i := len(ac.trunk) - 1; i >= 0; i-- {
		g = ac.trunk[i].BackwardBatch(g)
	}
	// The log-std gradient folds rows ascending with one running
	// accumulator per dimension, as per-row Backward calls would.
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
