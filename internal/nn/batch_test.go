package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vtmig/internal/mat"
)

// stack is a test network: Linear layers with the given activation
// between consecutive ones and a linear output, the composition
// rl.ActorCritic builds its trunk and heads from.
type stack struct {
	mods   []Module
	params []*Param
}

var _ Module = (*stack)(nil)

// newStack builds a stack with the given layer widths: sizes[0] inputs,
// sizes[len-1] outputs.
func newStack(name string, sizes []int, act Activation, rng *rand.Rand) *stack {
	s := &stack{}
	for i := 0; i+1 < len(sizes); i++ {
		s.mods = append(s.mods, NewLinear(fmt.Sprintf("%s.l%d", name, i), sizes[i], sizes[i+1], rng))
		if i+2 < len(sizes) {
			s.mods = append(s.mods, NewActivation(act, sizes[i+1]))
		}
	}
	for _, m := range s.mods {
		s.params = append(s.params, m.Params()...)
	}
	return s
}

func (s *stack) ForwardBatch(x *mat.Matrix) *mat.Matrix {
	for _, m := range s.mods {
		x = m.ForwardBatch(x)
	}
	return x
}

func (s *stack) BackwardBatch(g *mat.Matrix) *mat.Matrix {
	for i := len(s.mods) - 1; i >= 0; i-- {
		g = s.mods[i].BackwardBatch(g)
	}
	return g
}

func (s *stack) Params() []*Param { return s.params }

// forwardRow runs mod on the one input row x, a batch of one, and returns
// the output row, which the module owns.
func forwardRow(mod Module, x []float64) []float64 {
	return mod.ForwardBatch(mat.FromSlice(1, len(x), x)).Row(0)
}

// backwardRow runs one-row ForwardBatch and BackwardBatch calls on mod
// for input x and output gradient g, and returns the input gradient.
func backwardRow(mod Module, x, g []float64) []float64 {
	mod.ForwardBatch(mat.FromSlice(1, len(x), x))
	return mod.BackwardBatch(mat.FromSlice(1, len(g), g)).Row(0)
}

// cloneGrads snapshots every parameter gradient.
func cloneGrads(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Grad...)
	}
	return out
}

// signedZeroMix fills x with standard normals, the given share of them
// replaced by +0 or −0 at random.
func signedZeroMix(rng *rand.Rand, x []float64, share float64) {
	for i := range x {
		x[i] = rng.NormFloat64()
		if rng.Float64() < share {
			x[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
		}
	}
}

// refLinearForward is the textbook forward pass of l for one input row x:
// y[i] = Σₖ W[i][k]·x[k], summed from +0 over k ascending, plus b[i]
// added last.
func refLinearForward(l *Linear, x []float64) []float64 {
	y := make([]float64, l.out)
	for i := range y {
		var s float64
		for k, xk := range x {
			s += l.w.Value[i*l.in+k] * xk
		}
		y[i] = s + l.b.Value[i]
	}
	return y
}

// refActivationForward is the textbook forward pass of an activation for
// one input row: activate per element, which is math.Tanh for tanh.
func refActivationForward(a *activationLayer, x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = activate(a.kind, v)
	}
	return y
}

// refForward runs the textbook forward pass of s on one input row and
// returns every layer's input followed by the network output: ins[0] is
// x, ins[len(s.mods)] the output.
func refForward(s *stack, x []float64) [][]float64 {
	ins := make([][]float64, len(s.mods)+1)
	ins[0] = x
	for i, m := range s.mods {
		switch m := m.(type) {
		case *Linear:
			ins[i+1] = refLinearForward(m, ins[i])
		case *activationLayer:
			ins[i+1] = refActivationForward(m, ins[i])
		}
	}
	return ins
}

// refLinearBackward is the textbook per-sample backward pass of l for
// input x and output gradient g: dW += g⊗x and db += g, each element
// updated from its current value with no term skipped, and the returned
// dx[j] = Σₖ g[k]·W[k][j], summed from +0 over k ascending.
func refLinearBackward(l *Linear, x, g []float64) []float64 {
	for i, gi := range g {
		for j, xj := range x {
			l.w.Grad[i*l.in+j] += gi * xj
		}
		l.b.Grad[i] += gi
	}
	dx := make([]float64, l.in)
	for j := range dx {
		var s float64
		for k, gk := range g {
			s += gk * l.w.Value[k*l.in+j]
		}
		dx[j] = s
	}
	return dx
}

// refActivationBackward is the textbook per-sample backward pass of an
// activation with input in and output out: g times the derivative, read
// from the input for ReLU and softplus and from the output otherwise.
func refActivationBackward(a *activationLayer, in, out, g []float64) []float64 {
	dx := make([]float64, len(g))
	for i, gi := range g {
		switch {
		case a.kind == ActTanh:
			dx[i] = gi * (1 - out[i]*out[i])
		case derivReadsInput(a.kind):
			dx[i] = gi * activateDeriv(a.kind, in[i])
		default:
			dx[i] = gi * activateDeriv(a.kind, out[i])
		}
	}
	return dx
}

// refBackward runs the textbook per-sample backward pass of s over the
// rows of x in order, accumulating into s's gradients, and returns the
// input gradients. Each row's layer inputs come from the textbook forward
// pass, whose bits TestForwardBatchMatchesForward pins to the batch's.
func refBackward(s *stack, x, dy *mat.Matrix) *mat.Matrix {
	dx := mat.New(x.Rows, x.Cols)
	for b := 0; b < x.Rows; b++ {
		ins := refForward(s, x.Row(b))
		g := dy.Row(b)
		for i := len(s.mods) - 1; i >= 0; i-- {
			switch m := s.mods[i].(type) {
			case *Linear:
				g = refLinearBackward(m, ins[i], g)
			case *activationLayer:
				g = refActivationBackward(m, ins[i], ins[i+1], g)
			}
		}
		copy(dx.Row(b), g)
	}
	return dx
}

// TestForwardBatchMatchesForward checks that the forward pass reproduces
// the textbook per-row forward loop (refForward) bit for bit, row by row,
// under every hidden activation, for one row alone (the one-row act) and
// for batches that reach the kernel's 4-row blocks, its leftover single
// rows, or both. Every parameter, biases included, is random, so the
// bias has to be added last.
func TestForwardBatchMatchesForward(t *testing.T) {
	for _, act := range []Activation{ActIdentity, ActTanh, ActReLU, ActSigmoid, ActSoftplus} {
		t.Run(act.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			m := newStack("t", []int{7, 64, 64, 3}, act, rng)
			for _, p := range m.Params() {
				for i := range p.Value {
					p.Value[i] = rng.NormFloat64()
				}
			}
			for _, batch := range []int{1, 2, 3, 4, 5, 9, 20} {
				x := mat.New(batch, 7)
				x.Randomize(rng, 1)
				y := m.ForwardBatch(x)
				if y.Rows != batch || y.Cols != 3 {
					t.Fatalf("batch output %dx%d, want %dx3", y.Rows, y.Cols, batch)
				}
				requireRowsMatchTextbook(t, m, x, y)
			}
		})
	}
}

// requireRowsMatchTextbook fails unless every row of y has the bits of
// the textbook forward pass of s on the same row of x.
func requireRowsMatchTextbook(t *testing.T, s *stack, x, y *mat.Matrix) {
	t.Helper()
	for b := 0; b < x.Rows; b++ {
		ins := refForward(s, x.Row(b))
		for j, v := range ins[len(ins)-1] {
			if got := y.At(b, j); math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%d rows, row %d col %d: batch %v != textbook %v", x.Rows, b, j, got, v)
			}
		}
	}
}

// TestForwardBatchTracksWeightChanges checks that the forward pass reads
// the current weights on every call, with no stale copy: after an
// optimizer step and after a direct write to the weights, its output at
// many rows and at one still matches the textbook loop.
func TestForwardBatchTracksWeightChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLinear("t", 6, 5, rng)
	s := &stack{mods: []Module{l}, params: l.Params()}
	x := mat.New(8, 6)
	x.Randomize(rng, 1)
	x1 := mat.FromSlice(1, 6, x.Row(3))
	opt := NewAdam(0.1)
	for round := 0; round < 3; round++ {
		requireRowsMatchTextbook(t, s, x, l.ForwardBatch(x))
		requireRowsMatchTextbook(t, s, x1, l.ForwardBatch(x1))
		for _, p := range l.Params() {
			for i := range p.Grad {
				p.Grad[i] = rng.NormFloat64()
			}
		}
		opt.Step(l.Params())
		l.w.Value[round] = math.Copysign(0, -1)
	}
}

// TestBackwardBatchMatchesBackward checks that batched gradient
// accumulation is bit-identical to the textbook per-sample backward pass
// (refBackward) in row order, for both parameter gradients and input
// gradients, under every hidden activation: the derivatives read cached
// inputs (ReLU, softplus) or outputs (the others). Inputs, output
// gradients and the gradients accumulated into are laced with +0 and −0;
// input column 0 and output-gradient column 1 hold nothing else, and the
// gradient elements that only those reach start at −0, so a kernel that
// skipped zero terms would keep a −0 that the textbook loop turns into
// +0.
func TestBackwardBatchMatchesBackward(t *testing.T) {
	for _, act := range []Activation{ActIdentity, ActTanh, ActReLU, ActSigmoid, ActSoftplus} {
		t.Run(act.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			const batch, in, out = 6, 5, 2
			x := mat.New(batch, in)
			signedZeroMix(rng, x.Data, 0.25)
			dy := mat.New(batch, out)
			signedZeroMix(rng, dy.Data, 0.25)
			for b := 0; b < batch; b++ {
				signedZeroMix(rng, x.Row(b)[:1], 1)
				signedZeroMix(rng, dy.Row(b)[1:], 1)
			}
			build := func() *stack {
				return newStack("t", []int{in, 16, out}, act, rand.New(rand.NewSource(3)))
			}
			seq, bat := build(), build()
			for _, p := range seq.Params() {
				signedZeroMix(rng, p.Grad, 0.5)
			}
			// The elements only signed zeros reach start at −0.
			negZero := math.Copysign(0, -1)
			first, last := seq.mods[0].(*Linear), seq.mods[2].(*Linear)
			for i := 0; i < first.out; i++ {
				first.w.Grad[i*in] = negZero
			}
			for j := 0; j < last.in; j++ {
				last.w.Grad[last.in+j] = negZero
			}
			last.b.Grad[1] = negZero
			for i, p := range seq.Params() {
				copy(bat.Params()[i].Grad, p.Grad)
			}

			seqIn := refBackward(seq, x, dy)
			wantGrads := cloneGrads(seq.Params())

			bat.ForwardBatch(x)
			gin := bat.BackwardBatch(dy)
			for i, p := range bat.Params() {
				for j, g := range p.Grad {
					if math.Float64bits(g) != math.Float64bits(wantGrads[i][j]) {
						t.Fatalf("param %s grad[%d]: batch %v != sequential %v", p.Name, j, g, wantGrads[i][j])
					}
				}
			}
			for i, g := range gin.Data {
				if math.Float64bits(g) != math.Float64bits(seqIn.Data[i]) {
					t.Fatalf("input grad %d: batch %v != sequential %v", i, g, seqIn.Data[i])
				}
			}
		})
	}
}

// TestBatchShapeMismatchPanics locks in eager shape validation on the
// batched path.
func TestBatchShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLinear("t", 3, 2, rng)
	for name, fn := range map[string]func(){
		"forward width":  func() { l.ForwardBatch(mat.New(2, 4)) },
		"backward width": func() { l.ForwardBatch(mat.New(2, 3)); l.BackwardBatch(mat.New(2, 3)) },
		"backward rows":  func() { l.ForwardBatch(mat.New(2, 3)); l.BackwardBatch(mat.New(3, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestForwardBackwardAllocationFree locks in the zero-allocation steady
// state of the one-row forward pass (the one-row act) and of the
// forward/backward pair, at 20 rows and at one.
func TestForwardBackwardAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := newStack("t", []int{12, 64, 64, 1}, ActTanh, rng)
	xb := mat.New(20, 12)
	xb.Randomize(rng, 1)
	dy := mat.New(20, 1)
	dy.Fill(1)
	x1, dy1 := mat.New(1, 12), mat.New(1, 1)

	// Warm up so batch scratch reaches its final size.
	m.ForwardBatch(xb)
	m.BackwardBatch(dy)

	if n := testing.AllocsPerRun(20, func() { m.ForwardBatch(x1) }); n != 0 {
		t.Errorf("one-row ForwardBatch allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { m.ForwardBatch(xb); m.BackwardBatch(dy) }); n != 0 {
		t.Errorf("batched Forward+Backward allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { m.ForwardBatch(x1); m.BackwardBatch(dy1) }); n != 0 {
		t.Errorf("one-row batched Forward+Backward allocates %v times per call, want 0", n)
	}
}
