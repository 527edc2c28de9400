package mat

import (
	"math"
	"math/rand"
	"testing"

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

// Property: for random m, x, y we have (m·x)·y == x·(mᵀ·y) — the adjoint
// identity that backpropagation depends on. A layer's forward pass
// computes m·x as x·mᵀ (MulABTBiasTo, zero bias) and its backward pass
// mᵀ·y as y·m (MulTo).
func TestMulVecAdjointProperty(t *testing.T) {
	dot := func(x, y []float64) float64 {
		var s float64
		for i, v := range x {
			s += v * y[i]
		}
		return s
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(8)
		m := New(rows, cols)
		m.Randomize(rng, 1)
		x := randVec(rng, cols)
		y := randVec(rng, rows)
		lhs := dot(MulABTBiasTo(New(1, rows), FromSlice(1, cols, x), m, make([]float64, rows)).Data, y)
		rhs := dot(x, MulTo(New(1, cols), FromSlice(1, rows, y), m).Data)
		if !mathx.AlmostEqual(lhs, rhs, 1e-9) {
			t.Fatalf("adjoint identity violated: %v vs %v (shape %dx%d)", lhs, rhs, rows, cols)
		}
	}
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
	nonzero := false
	for _, v := range m.Data {
		nonzero = nonzero || v != 0
	}
	if !nonzero {
		t.Error("Xavier init produced an all-zero matrix")
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
