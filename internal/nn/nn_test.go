package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"vtmig/internal/mat"
	"vtmig/internal/mathx"
)

func TestLinearForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("t", 2, 2, rng)
	// Overwrite with known weights: W = [1 2; 3 4], b = [10, 20].
	copy(l.Params()[0].Value, []float64{1, 2, 3, 4})
	copy(l.Params()[1].Value, []float64{10, 20})
	got := forwardRow(l, []float64{5, 6})
	if got[0] != 27 || got[1] != 59 {
		t.Errorf("one-row ForwardBatch = %v, want [27 59]", got)
	}
}

func TestLinearBackwardGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("t", 2, 2, rng)
	copy(l.Params()[0].Value, []float64{1, 2, 3, 4})
	copy(l.Params()[1].Value, []float64{0, 0})
	gin := backwardRow(l, []float64{5, 6}, []float64{1, 1})
	// dL/dx = W^T g = [1+3, 2+4] = [4, 6]
	if gin[0] != 4 || gin[1] != 6 {
		t.Errorf("input grad = %v, want [4 6]", gin)
	}
	// dW = g ⊗ x = [5 6; 5 6]
	w := l.Params()[0]
	want := []float64{5, 6, 5, 6}
	for i := range want {
		if w.Grad[i] != want[i] {
			t.Errorf("dW = %v, want %v", w.Grad, want)
			break
		}
	}
	// db = g
	b := l.Params()[1]
	if b.Grad[0] != 1 || b.Grad[1] != 1 {
		t.Errorf("db = %v, want [1 1]", b.Grad)
	}
}

func TestLinearGradAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("t", 1, 1, rng)
	backwardRow(l, []float64{2}, []float64{1})
	backwardRow(l, []float64{2}, []float64{1})
	if got := l.Params()[0].Grad[0]; got != 4 {
		t.Errorf("accumulated dW = %v, want 4", got)
	}
	ZeroGrads(l.Params())
	if got := l.Params()[0].Grad[0]; got != 0 {
		t.Errorf("after ZeroGrads dW = %v, want 0", got)
	}
}

func TestActivationValues(t *testing.T) {
	tests := []struct {
		kind Activation
		in   float64
		out  float64
	}{
		{ActIdentity, 1.5, 1.5},
		{ActTanh, 0, 0},
		{ActTanh, 1, math.Tanh(1)},
		{ActReLU, -2, 0},
		{ActReLU, 3, 3},
		{ActSigmoid, 0, 0.5},
		{ActSoftplus, 0, math.Log(2)},
		{ActSoftplus, 50, 50}, // stable branch
	}
	for _, tt := range tests {
		t.Run(tt.kind.String(), func(t *testing.T) {
			a := NewActivation(tt.kind, 1)
			got := forwardRow(a, []float64{tt.in})
			if !mathx.AlmostEqual(got[0], tt.out, 1e-12) {
				t.Errorf("%v(%v) = %v, want %v", tt.kind, tt.in, got[0], tt.out)
			}
		})
	}
}

func TestActivationDerivativesNumerically(t *testing.T) {
	kinds := []Activation{ActIdentity, ActTanh, ActReLU, ActSigmoid, ActSoftplus}
	points := []float64{-1.7, -0.3, 0.4, 2.1}
	const h = 1e-6
	for _, kind := range kinds {
		for _, x := range points {
			analytic := backwardRow(NewActivation(kind, 1), []float64{x}, []float64{1})[0]
			numeric := (activate(kind, x+h) - activate(kind, x-h)) / (2 * h)
			if !mathx.AlmostEqual(analytic, numeric, 1e-4) {
				t.Errorf("%v'(%v): analytic %v, numeric %v", kind, x, analytic, numeric)
			}
		}
	}
}

func TestUnknownActivationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewActivation(0) did not panic")
		}
	}()
	NewActivation(Activation(0), 1)
}

// TestMLPGradCheck verifies one-row BackwardBatch through a small tanh
// layer stack against central finite differences for every parameter,
// using the scalar loss L = sum(c ⊙ f(x)).
func TestMLPGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := newStack("gc", []int{3, 5, 4, 2}, ActTanh, rng)
	x := []float64{0.3, -0.8, 1.2}
	c := []float64{0.7, -1.3}

	loss := func() float64 {
		out := forwardRow(m, x)
		return c[0]*out[0] + c[1]*out[1]
	}

	// Analytic gradients.
	ZeroGrads(m.Params())
	backwardRow(m, x, c)

	const h = 1e-6
	for _, p := range m.Params() {
		for i := range p.Value {
			orig := p.Value[i]
			p.Value[i] = orig + h
			up := loss()
			p.Value[i] = orig - h
			down := loss()
			p.Value[i] = orig
			numeric := (up - down) / (2 * h)
			if !mathx.AlmostEqual(p.Grad[i], numeric, 1e-4) {
				t.Fatalf("grad check failed at %s[%d]: analytic %v, numeric %v", p.Name, i, p.Grad[i], numeric)
			}
		}
	}
}

// TestMLPInputGradCheck verifies dL/dx from one-row BackwardBatch
// through a small tanh layer stack, which the policy-gradient path
// through a squashing function relies on.
func TestMLPInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := newStack("gc", []int{3, 6, 1}, ActTanh, rng)
	x := []float64{0.5, -0.2, 0.9}

	gin := backwardRow(m, x, []float64{1})

	const h = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		up := forwardRow(m, x)[0]
		x[i] = orig - h
		down := forwardRow(m, x)[0]
		x[i] = orig
		numeric := (up - down) / (2 * h)
		if !mathx.AlmostEqual(gin[i], numeric, 1e-4) {
			t.Fatalf("input grad check failed at x[%d]: analytic %v, numeric %v", i, gin[i], numeric)
		}
	}
}

func TestAdamDecreasesQuadratic(t *testing.T) {
	// Minimize f(θ) = (θ-3)² starting from 0.
	p := newParam("p", 1)
	opt := NewAdam(0.1)
	for i := 0; i < 2000; i++ {
		p.Grad[0] = 2 * (p.Value[0] - 3)
		opt.Step([]*Param{p})
		ZeroGrads([]*Param{p})
	}
	if !mathx.AlmostEqual(p.Value[0], 3, 1e-2) {
		t.Errorf("Adam converged to %v, want 3", p.Value[0])
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the first Adam step has magnitude ≈ lr
	// regardless of gradient scale.
	for _, g := range []float64{1e-4, 1, 1e4} {
		p := newParam("p", 1)
		p.Grad[0] = g
		NewAdam(0.01).Step([]*Param{p})
		if !mathx.AlmostEqual(-p.Value[0], 0.01, 1e-3) {
			t.Errorf("first step with grad %v moved %v, want ~0.01", g, -p.Value[0])
		}
	}
}

func TestAdamValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAdam(0) did not panic")
		}
	}()
	NewAdam(0)
}

func TestClipGradNorm(t *testing.T) {
	p := newParam("p", 2)
	p.Grad[0], p.Grad[1] = 3, 4 // norm 5
	pre := ClipGradNorm([]*Param{p}, 1)
	if pre != 5 {
		t.Errorf("pre-clip norm = %v, want 5", pre)
	}
	if got := math.Hypot(p.Grad[0], p.Grad[1]); !mathx.AlmostEqual(got, 1, 1e-12) {
		t.Errorf("post-clip norm = %v, want 1", got)
	}
}

func TestClipGradNormNoopBelowThreshold(t *testing.T) {
	p := newParam("p", 2)
	p.Grad[0], p.Grad[1] = 0.3, 0.4
	ClipGradNorm([]*Param{p}, 1)
	if p.Grad[0] != 0.3 || p.Grad[1] != 0.4 {
		t.Errorf("clip modified gradients below threshold: %v", p.Grad)
	}
}

func TestClipGradNormDisabled(t *testing.T) {
	p := newParam("p", 1)
	p.Grad[0] = 100
	ClipGradNorm([]*Param{p}, 0)
	if p.Grad[0] != 100 {
		t.Error("maxNorm=0 must disable clipping")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := newStack("ck", []int{2, 4, 1}, ActTanh, rng)
	before := forwardRow(m, []float64{0.5, -0.5})[0]

	ck, err := Snapshot(m.Params())
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if ck.Opt, err = NewAdam(1e-3).StateSnapshot(m.Params()); err != nil {
		t.Fatalf("StateSnapshot: %v", err)
	}
	ck.RNG, ck.Meta = &RNGState{Seed: 1}, &TrainMeta{}
	var buf bytes.Buffer
	if err := ck.SaveBinary(&buf); err != nil {
		t.Fatalf("SaveBinary: %v", err)
	}

	// Perturb and restore.
	for _, p := range m.Params() {
		for i := range p.Value {
			p.Value[i] += 1
		}
	}
	loaded, err := LoadCheckpoint(buf.Bytes())
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if err := loaded.Restore(m.Params()); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	after := forwardRow(m, []float64{0.5, -0.5})[0]
	if before != after {
		t.Errorf("output after restore = %v, want %v", after, before)
	}
}

func TestCheckpointMissingParam(t *testing.T) {
	ck := &Checkpoint{Params: map[string][]float64{}}
	err := ck.Restore([]*Param{newParam("absent", 1)})
	if err == nil {
		t.Fatal("Restore with missing parameter succeeded")
	}
}

func TestCheckpointLengthMismatch(t *testing.T) {
	ck := &Checkpoint{Params: map[string][]float64{"p": {1, 2}}}
	err := ck.Restore([]*Param{newParam("p", 3)})
	if err == nil {
		t.Fatal("Restore with length mismatch succeeded")
	}
}

func TestSnapshotDuplicateNames(t *testing.T) {
	_, err := Snapshot([]*Param{newParam("dup", 1), newParam("dup", 1)})
	if err == nil {
		t.Fatal("Snapshot with duplicate names succeeded")
	}
}

func TestTrainXORWithAdam(t *testing.T) {
	// End-to-end sanity: a 2-8-1 tanh layer stack learns XOR, one
	// four-row batch per step.
	rng := rand.New(rand.NewSource(42))
	m := newStack("xor", []int{2, 8, 1}, ActTanh, rng)
	opt := NewAdam(0.05)
	inputs := mat.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	targets := []float64{0, 1, 1, 0}
	dy := mat.New(4, 1)
	for epoch := 0; epoch < 2000; epoch++ {
		ZeroGrads(m.Params())
		out := m.ForwardBatch(inputs)
		for i, target := range targets {
			// L = (out - target)^2, dL/dout = 2(out-target)
			dy.Data[i] = 2 * (out.Data[i] - target)
		}
		m.BackwardBatch(dy)
		opt.Step(m.Params())
	}
	for i, target := range targets {
		x := inputs.Row(i)
		if out := forwardRow(m, x)[0]; math.Abs(out-target) > 0.2 {
			t.Errorf("XOR(%v) = %v, want %v", x, out, target)
		}
	}
}
