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
// accumulates gradients bit-identically to one-row passes over its rows
// in order. "Bit-identical" is meant literally — comparisons go
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
// batch sizes, with occasional −0 value gradients, one ForwardBatch +
// BackwardBatch over all rows leaves every parameter gradient
// bit-identical to one-row ForwardBatch + BackwardBatch calls in row
// order.
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
		for r := 0; r < rows; r++ {
			seq.ForwardBatch(mat.FromSlice(1, obsDim, obs.Row(r)))
			seq.BackwardBatch(mat.FromSlice(1, actDim, dMean.Row(r)), mat.FromSlice(1, actDim, dLogStd.Row(r)), dValue[r:r+1])
		}
		bat := build()
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

// textbookAdam is Adam as Kingma & Ba write it, with every division in
// place, over a parameter list in order.
type textbookAdam struct {
	beta1, beta2, lr, eps float64
	t                     int
	m, v                  [][]float64
}

func newTextbookAdam(opt *nn.Adam, params []*nn.Param) *textbookAdam {
	a := &textbookAdam{beta1: opt.Beta1, beta2: opt.Beta2, lr: opt.LR, eps: opt.Eps}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p.Value)))
		a.v = append(a.v, make([]float64, len(p.Value)))
	}
	return a
}

func (a *textbookAdam) step(params []*nn.Param) {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for pi, p := range params {
		m, v := a.m[pi], a.v[pi]
		for i, g := range p.Grad {
			m[i] = a.beta1*m[i] + (1-a.beta1)*g
			v[i] = a.beta2*v[i] + (1-a.beta2)*g*g
			mHat := m[i] / c1
			vHat := v[i] / c2
			p.Value[i] -= a.lr * mHat / (math.Sqrt(vHat) + a.eps)
		}
	}
}

// textbookUpdate is PPO.Update for the paper's Algorithm 1 with every
// minibatch's optimizer tail written out step by step: zero every
// gradient, BackwardBatch, rescale the gradients in place when the
// serial sum of their squares puts the norm above MaxGradNorm, and step
// textbookAdam. It returns how many minibatches it clipped.
func textbookUpdate(p *PPO, buf *Rollout, opt *textbookAdam) (clipped int) {
	steps := buf.Steps()
	n := len(steps)
	if p.cfg.NormalizeAdv {
		buf.NormalizeAdvantages()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	params := p.net.Params()
	obsDim, actDim := p.net.ObsDim(), p.net.ActDim()
	for epoch := 0; epoch < p.cfg.Epochs; epoch++ {
		p.rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		batch := idx[:min(p.cfg.MiniBatch, n)]

		for _, q := range params {
			for i := range q.Grad {
				q.Grad[i] = 0
			}
		}
		b := len(batch)
		obs, dMean, dLogStd, dValue := mat.New(b, obsDim), mat.New(b, actDim), mat.New(b, actDim), make([]float64, b)
		for bi, i := range batch {
			copy(obs.Row(bi), steps[i].Obs)
		}
		means, logStd, values := p.net.ForwardBatch(obs)
		for bi, i := range batch {
			dValue[bi], _, _, _ = p.rowLoss(&steps[i], means.Row(bi), logStd, values[bi], dMean.Row(bi), dLogStd.Row(bi), 1/float64(b))
		}
		p.net.BackwardBatch(dMean, dLogStd, dValue)

		var ss float64
		for _, q := range params {
			for _, g := range q.Grad {
				ss += g * g
			}
		}
		maxNorm, norm := p.cfg.MaxGradNorm, math.Sqrt(ss)
		if !(maxNorm <= 0 || norm <= maxNorm || norm == 0) {
			clipped++
			scale := maxNorm / norm
			for _, q := range params {
				for i := range q.Grad {
					q.Grad[i] *= scale
				}
			}
		}
		opt.step(params)
		p.clampLogStd()
	}
	return clipped
}

// TestUpdateMatchesTextbookStep pins the whole minibatch update against
// textbookUpdate, which keeps the sequence PPO.updateMiniBatch folds into
// one optimizer pass (the clip factor applied and the gradients reset
// inside Adam's step, and no division by a bias correction of exactly 1).
// Two copies of a paper-sized learner run 40 update phases, 400 Adam
// steps, past step 356 where c1 becomes exactly 1, with clipping at
// MaxGradNorm 0.5 and disabled. After every phase the weights and both
// Adam moments must match bit for bit, and every gradient must read +0,
// which is what the reference's zeroing writes before its next step.
func TestUpdateMatchesTextbookStep(t *testing.T) {
	for _, maxNorm := range []float64{0.5, 0} {
		t.Run(fmt.Sprintf("MaxGradNorm=%g", maxNorm), func(t *testing.T) {
			cfg := DefaultPPOConfig()
			cfg.MaxGradNorm = maxNorm
			agent, buf, _ := newAllocAgentWith(t, cfg)
			ref, err := agent.Clone()
			if err != nil {
				t.Fatal(err)
			}
			refBuf := NewRollout(buf.Len())
			refBuf.AppendFrom(buf)
			refBuf.ComputeGAE(0.95, 0.95, 0)
			opt := newTextbookAdam(ref.opt, ref.Params())
			clipped := 0
			for phase := 0; phase < 40; phase++ {
				agent.Update(buf)
				clipped += textbookUpdate(ref, refBuf, opt)
				if what, ok := paramsEqualBits(agent.Params(), ref.Params()); !ok {
					t.Fatalf("phase %d (Adam step %d): weights differ: %s", phase, opt.t, what)
				}
				st, err := agent.opt.StateSnapshot(agent.Params())
				if err != nil {
					t.Fatal(err)
				}
				for pi, p := range agent.Params() {
					for _, mv := range []struct {
						name      string
						got, want []float64
					}{{"m", st.M[p.Name], opt.m[pi]}, {"v", st.V[p.Name], opt.v[pi]}} {
						for i := range mv.want {
							if math.Float64bits(mv.got[i]) != math.Float64bits(mv.want[i]) {
								t.Fatalf("phase %d: Adam %s of %s[%d] = %v, textbook %v", phase, mv.name, p.Name, i, mv.got[i], mv.want[i])
							}
						}
					}
					for i, g := range p.Grad {
						if math.Float64bits(g) != 0 {
							t.Fatalf("phase %d: %s grad[%d] = %v after the update, want +0", phase, p.Name, i, g)
						}
					}
				}
			}
			if opt.t <= 356 {
				t.Fatalf("only %d Adam steps; the table must pass step 356", opt.t)
			}
			if maxNorm > 0 && clipped == 0 {
				t.Fatal("no minibatch clipped; the table must exercise the clip factor")
			}
			t.Logf("%d Adam steps, %d clipped", opt.t, clipped)
		})
	}
}
