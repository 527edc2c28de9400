package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vtmig/internal/mathx"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) shape = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Errorf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", shape[0], shape[1])
				}
			}()
			New(shape[0], shape[1])
		}()
	}
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if got := m.At(0, 2); got != 3 {
		t.Errorf("At(0,2) = %v, want 3", got)
	}
	if got := m.At(1, 0); got != 4 {
		t.Errorf("At(1,0) = %v, want 4", got)
	}
}

func TestFromSlicePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestAtSetRoundTrip(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 1, 42)
	if got := m.At(1, 1); got != 42 {
		t.Errorf("At(1,1) = %v, want 42", got)
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][2]int{{2, 0}, {0, 2}, {-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestRowAliases(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	r := m.Row(1)
	r[0] = 99
	if got := m.At(1, 0); got != 99 {
		t.Errorf("Row must alias storage; At(1,0) = %v, want 99", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 1 {
		t.Error("Clone is not a deep copy")
	}
	if !m.Equal(m.Clone()) {
		t.Error("Clone should be Equal to the original")
	}
}

func TestMulVecT(t *testing.T) {
	// [1 2; 3 4]^T * [5, 6] = [1*5+3*6, 2*5+4*6] = [23, 34]
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	got := m.MulVecT([]float64{5, 6}, make([]float64, 2))
	if got[0] != 23 || got[1] != 34 {
		t.Errorf("MulVecT = %v, want [23 34]", got)
	}
}

// Property: for random m, x, y we have (m·x)·y == x·(mᵀ·y) — the adjoint
// identity that backpropagation depends on.
func TestMulVecAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(8)
		m := New(rows, cols)
		m.Randomize(rng, 1)
		x := randVec(rng, cols)
		y := randVec(rng, rows)
		lhs := Dot(MulABTTo(New(1, rows), FromSlice(1, cols, x), m).Data, y)
		rhs := Dot(x, m.MulVecT(y, make([]float64, cols)))
		if !mathx.AlmostEqual(lhs, rhs, 1e-9) {
			t.Fatalf("adjoint identity violated: %v vs %v (shape %dx%d)", lhs, rhs, rows, cols)
		}
	}
}

func TestAddOuterScaled(t *testing.T) {
	m := New(2, 2)
	m.AddOuterScaled([]float64{1, 2}, []float64{3, 4}, 2)
	want := FromSlice(2, 2, []float64{6, 8, 12, 16})
	if !m.Equal(want) {
		t.Errorf("AddOuterScaled = %v, want %v", m.Data, want.Data)
	}
}

func TestAddOuterScaledAccumulates(t *testing.T) {
	m := FromSlice(1, 1, []float64{10})
	m.AddOuterScaled([]float64{2}, []float64{3}, 1)
	if got := m.At(0, 0); got != 16 {
		t.Errorf("accumulated value = %v, want 16", got)
	}
}

func TestAddScaledAndScale(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	n := FromSlice(1, 2, []float64{10, 20})
	m.AddScaled(n, 0.5)
	if m.At(0, 0) != 6 || m.At(0, 1) != 12 {
		t.Errorf("AddScaled = %v, want [6 12]", m.Data)
	}
	m.Scale(2)
	if m.At(0, 0) != 12 || m.At(0, 1) != 24 {
		t.Errorf("Scale = %v, want [12 24]", m.Data)
	}
}

func TestAddScaledShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddScaled shape mismatch did not panic")
		}
	}()
	New(2, 2).AddScaled(New(2, 3), 1)
}

func TestZeroFill(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, 2, 3})
	m.Fill(7)
	for _, v := range m.Data {
		if v != 7 {
			t.Fatalf("Fill: got %v", m.Data)
		}
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("Zero: got %v", m.Data)
		}
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromSlice(1, 2, []float64{3, 4})
	if got := m.FrobeniusNorm(); got != 5 {
		t.Errorf("FrobeniusNorm = %v, want 5", got)
	}
}

func TestXavierInitWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(64, 64)
	m.XavierInit(rng, 64, 64)
	limit := math.Sqrt(6.0 / 128.0)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("Xavier sample %v exceeds limit %v", v, limit)
		}
	}
	// The draw should not be degenerate.
	if m.FrobeniusNorm() == 0 {
		t.Error("Xavier init produced an all-zero matrix")
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestVectorOps(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{10, 20}
	if got := AxpyInto(make([]float64, 2), 2, x, y); got[0] != 12 || got[1] != 24 {
		t.Errorf("AxpyInto = %v, want [12 24]", got)
	}
	if got := AddInto(make([]float64, 2), x, y); got[0] != 11 || got[1] != 22 {
		t.Errorf("AddInto = %v, want [11 22]", got)
	}
	if got := SubInto(make([]float64, 2), y, x); got[0] != 9 || got[1] != 18 {
		t.Errorf("SubInto = %v, want [9 18]", got)
	}
	if got := MulInto(make([]float64, 2), x, y); got[0] != 10 || got[1] != 40 {
		t.Errorf("MulInto = %v, want [10 40]", got)
	}
	if got := ScaleInto(make([]float64, 2), 3, x); got[0] != 3 || got[1] != 6 {
		t.Errorf("ScaleInto = %v, want [3 6]", got)
	}
	if got := MapInto(make([]float64, 2), func(v float64) float64 { return v * v }, x); got[0] != 1 || got[1] != 4 {
		t.Errorf("MapInto = %v, want [1 4]", got)
	}
}

func TestVectorOpsAlias(t *testing.T) {
	x := []float64{1, 2}
	AddInto(x, x, x)
	if x[0] != 2 || x[1] != 4 {
		t.Errorf("aliased AddInto = %v, want [2 4]", x)
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", got)
	}
}

func TestCloneSlice(t *testing.T) {
	x := []float64{1, 2}
	c := CloneSlice(x)
	c[0] = 9
	if x[0] != 1 {
		t.Error("CloneSlice is not a copy")
	}
}

func TestDotSymmetryProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		for _, v := range append(a[:], b[:]...) {
			// Huge magnitudes overflow to ±Inf, and a sum containing
			// Inf-Inf yields NaN, which is not equal to itself.
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		return Dot(a[:], b[:]) == Dot(b[:], a[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
