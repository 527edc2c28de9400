package nn

import (
	"math"
	"math/rand"
	"testing"

	"vtmig/internal/mat"
)

// cloneGrads snapshots every parameter gradient.
func cloneGrads(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Grad...)
	}
	return out
}

// TestForwardBatchMatchesForward checks that the batched path reproduces
// the sample-at-a-time path bit for bit, row by row, for batches on both
// sides of the transposed-weights threshold. Every parameter, biases
// included, is random, so the bias has to be added last on both paths.
func TestForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP("t", []int{7, 64, 64, 3}, ActTanh, rng)
	for _, p := range m.Params() {
		for i := range p.Value {
			p.Value[i] = rng.NormFloat64()
		}
	}
	for _, batch := range []int{1, 2, 3, transposedMinRows, 5, 9, 20} {
		x := mat.New(batch, 7)
		x.Randomize(rng, 1)
		y := m.ForwardBatch(x)
		if y.Rows != batch || y.Cols != 3 {
			t.Fatalf("batch output %dx%d, want %dx3", y.Rows, y.Cols, batch)
		}
		requireRowsMatchForward(t, m, x, y)
	}
}

// requireRowsMatchForward fails unless every row of y has the bits of
// mod.Forward on the same row of x.
func requireRowsMatchForward(t *testing.T, mod Module, x, y *mat.Matrix) {
	t.Helper()
	for b := 0; b < x.Rows; b++ {
		for j, v := range mod.Forward(x.Row(b)) {
			if got := y.At(b, j); math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%d rows, row %d col %d: batch %v != sequential %v", x.Rows, b, j, got, v)
			}
		}
	}
}

// TestForwardBatchTracksWeightChanges checks that the transposed weight
// copy behind large batches is rebuilt on every call: after an optimizer
// step and after a direct write to the weights, the batched output still
// matches the sample-at-a-time path.
func TestForwardBatchTracksWeightChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLinear("t", 6, 5, rng)
	x := mat.New(8, 6)
	x.Randomize(rng, 1)
	opt := NewAdam(0.1)
	for round := 0; round < 3; round++ {
		requireRowsMatchForward(t, l, x, l.ForwardBatch(x))
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
// accumulation is bit-identical to per-sample Backward calls in row order,
// for both parameter gradients and input gradients.
func TestBackwardBatchMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const batch, in, out = 6, 5, 2
	build := func() *MLP {
		return NewMLP("t", []int{in, 16, out}, ActTanh, rand.New(rand.NewSource(3)))
	}
	x := mat.New(batch, in)
	x.Randomize(rng, 1)
	dy := mat.New(batch, out)
	dy.Randomize(rng, 1)

	seq := build()
	seqIn := mat.New(batch, in)
	for b := 0; b < batch; b++ {
		seq.Forward(x.Row(b))
		copy(seqIn.Row(b), seq.Backward(dy.Row(b)))
	}
	wantGrads := cloneGrads(seq.Params())

	bat := build()
	bat.ForwardBatch(x)
	gin := bat.BackwardBatch(dy)
	for i, p := range bat.Params() {
		for j, g := range p.Grad {
			if g != wantGrads[i][j] {
				t.Fatalf("param %s grad[%d]: batch %v != sequential %v", p.Name, j, g, wantGrads[i][j])
			}
		}
	}
	if !gin.Equal(seqIn) {
		t.Error("batched input gradients differ from sequential")
	}
}

// TestBatchAndSequentialCachesIndependent checks that interleaving the two
// paths does not corrupt either cache.
func TestBatchAndSequentialCachesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear("t", 3, 2, rng)
	x1 := []float64{1, 2, 3}
	xb := mat.FromSlice(2, 3, []float64{4, 5, 6, 7, 8, 9})

	l.Forward(x1)
	l.ForwardBatch(xb) // must not clobber the sample-at-a-time cache
	g := l.Backward([]float64{1, 1})
	want := NewLinear("t", 3, 2, rand.New(rand.NewSource(4)))
	want.Forward(x1)
	wantG := want.Backward([]float64{1, 1})
	for i := range g {
		if g[i] != wantG[i] {
			t.Fatalf("input grad[%d] = %v, want %v (batched call corrupted cache)", i, g[i], wantG[i])
		}
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
// state of both the sample-at-a-time and batched paths.
func TestForwardBackwardAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP("t", []int{12, 64, 64, 1}, ActTanh, rng)
	x := make([]float64, 12)
	xb := mat.New(20, 12)
	xb.Randomize(rng, 1)
	dy := mat.New(20, 1)
	dy.Fill(1)
	one := []float64{1}

	// Warm up so batch scratch reaches its final size.
	m.ForwardBatch(xb)
	m.BackwardBatch(dy)

	if n := testing.AllocsPerRun(20, func() { m.Forward(x) }); n != 0 {
		t.Errorf("Forward allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { m.Forward(x); m.Backward(one) }); n != 0 {
		t.Errorf("Forward+Backward allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { m.ForwardBatch(xb); m.BackwardBatch(dy) }); n != 0 {
		t.Errorf("batched Forward+Backward allocates %v times per call, want 0", n)
	}
}
