package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDBConversions(t *testing.T) {
	tests := []struct {
		name string
		db   float64
		lin  float64
	}{
		{"zero dB", 0, 1},
		{"10 dB", 10, 10},
		{"20 dB", 20, 100},
		{"-20 dB", -20, 0.01},
		{"3 dB", 3, 1.9952623149688795},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := DBToLinear(tt.db); !AlmostEqual(got, tt.lin, DefaultTol) {
				t.Errorf("DBToLinear(%v) = %v, want %v", tt.db, got, tt.lin)
			}
			if got := LinearToDB(tt.lin); !AlmostEqual(got, tt.db, DefaultTol) {
				t.Errorf("LinearToDB(%v) = %v, want %v", tt.lin, got, tt.db)
			}
		})
	}
}

func TestDBmConversions(t *testing.T) {
	tests := []struct {
		name string
		dbm  float64
		watt float64
	}{
		{"0 dBm is 1 mW", 0, 0.001},
		{"30 dBm is 1 W", 30, 1},
		{"40 dBm is 10 W", 40, 10},
		{"-150 dBm", -150, 1e-18},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := DBmToWatt(tt.dbm); !AlmostEqual(got, tt.watt, 1e-9) {
				t.Errorf("DBmToWatt(%v) = %v, want %v", tt.dbm, got, tt.watt)
			}
			if got := WattToDBm(tt.watt); !AlmostEqual(got, tt.dbm, 1e-9) {
				t.Errorf("WattToDBm(%v) = %v, want %v", tt.watt, got, tt.dbm)
			}
		})
	}
}

func TestDBRoundTripProperty(t *testing.T) {
	f := func(db float64) bool {
		db = math.Mod(db, 200) // keep in a numerically sane range
		return AlmostEqual(LinearToDB(DBToLinear(db)), db, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearToDBNonPositive(t *testing.T) {
	if got := LinearToDB(0); !math.IsInf(got, -1) {
		t.Errorf("LinearToDB(0) = %v, want -Inf", got)
	}
	if got := WattToDBm(-1); !math.IsInf(got, -1) {
		t.Errorf("WattToDBm(-1) = %v, want -Inf", got)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		name      string
		v, lo, hi float64
		want      float64
	}{
		{"below", -1, 0, 1, 0},
		{"above", 2, 0, 1, 1},
		{"inside", 0.5, 0, 1, 0.5},
		{"at lo", 0, 0, 1, 0},
		{"at hi", 1, 0, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
				t.Errorf("Clamp(%v, %v, %v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
			}
		})
	}
}

func TestClampPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp with lo > hi did not panic")
		}
	}()
	Clamp(0, 1, 0)
}

func TestClampInt(t *testing.T) {
	if got := ClampInt(5, 0, 3); got != 3 {
		t.Errorf("ClampInt(5,0,3) = %d, want 3", got)
	}
	if got := ClampInt(-5, 0, 3); got != 0 {
		t.Errorf("ClampInt(-5,0,3) = %d, want 0", got)
	}
	if got := ClampInt(2, 0, 3); got != 2 {
		t.Errorf("ClampInt(2,0,3) = %d, want 2", got)
	}
}

func TestClampProperty(t *testing.T) {
	f := func(v, a, b float64) bool {
		if math.IsNaN(v) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(v, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlmostEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		tol  float64
		want bool
	}{
		{"identical", 1, 1, 1e-12, true},
		{"close small", 1, 1 + 1e-12, 1e-9, true},
		{"close large", 1e12, 1e12 + 1, 1e-9, true},
		{"far", 1, 2, 1e-9, false},
		{"nan left", math.NaN(), 1, 1, false},
		{"nan right", 1, math.NaN(), 1, false},
		{"both inf", math.Inf(1), math.Inf(1), 1e-9, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := AlmostEqual(tt.a, tt.b, tt.tol); got != tt.want {
				t.Errorf("AlmostEqual(%v, %v, %v) = %v, want %v", tt.a, tt.b, tt.tol, got, tt.want)
			}
		})
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(got) != len(want) {
		t.Fatalf("Linspace length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !AlmostEqual(got[i], want[i], DefaultTol) {
			t.Errorf("Linspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLinspaceEndpointsExact(t *testing.T) {
	got := Linspace(5, 9, 7)
	if got[0] != 5 || got[6] != 9 {
		t.Errorf("Linspace endpoints = %v, %v, want 5, 9", got[0], got[6])
	}
}

func TestLinspacePanicsOnShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Linspace(0,1,1) did not panic")
		}
	}()
	Linspace(0, 1, 1)
}

func TestSumMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Sum(xs); got != 40 {
		t.Errorf("Sum = %v, want 40", got)
	}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample std dev of this classic dataset is sqrt(32/7).
	if got, want := StdDev(xs), math.Sqrt(32.0/7.0); !AlmostEqual(got, want, 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
}

func TestEmptyStats(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := StdDev([]float64{1}); got != 0 {
		t.Errorf("StdDev(single) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 4, 1, 5})
	if lo != -1 || hi != 5 {
		t.Errorf("MinMax = (%v, %v), want (-1, 5)", lo, hi)
	}
}

func TestLog2OnePlus(t *testing.T) {
	if got := Log2OnePlus(1); got != 1 {
		t.Errorf("Log2OnePlus(1) = %v, want 1", got)
	}
	if got := Log2OnePlus(3); got != 2 {
		t.Errorf("Log2OnePlus(3) = %v, want 2", got)
	}
}

func TestLog2OnePlusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log2OnePlus(-1) did not panic")
		}
	}()
	Log2OnePlus(-1)
}

func TestGoldenMaxQuadratic(t *testing.T) {
	// f(x) = -(x-3)^2 + 7 has its maximum at x=3.
	f := func(x float64) float64 { return -(x-3)*(x-3) + 7 }
	x, fx := GoldenMax(f, -10, 10, 1e-10, 200)
	if !AlmostEqual(x, 3, 1e-6) {
		t.Errorf("argmax = %v, want 3", x)
	}
	if !AlmostEqual(fx, 7, 1e-9) {
		t.Errorf("max = %v, want 7", fx)
	}
}

func TestGoldenMaxInvertedBounds(t *testing.T) {
	f := func(x float64) float64 { return -x * x }
	x, _ := GoldenMax(f, 5, -5, 1e-10, 200)
	if !AlmostEqual(x, 0, 1e-6) {
		t.Errorf("argmax = %v, want 0", x)
	}
}

func TestGoldenMaxProperty(t *testing.T) {
	// For any concave quadratic with vertex inside the bracket, golden
	// search must find the vertex.
	f := func(center float64) bool {
		c := math.Mod(center, 50)
		q := func(x float64) float64 { return -(x - c) * (x - c) }
		x, _ := GoldenMax(q, -60, 60, 1e-9, 300)
		return AlmostEqual(x, c, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBisect(t *testing.T) {
	// Root of x^3 - 2 is 2^(1/3).
	f := func(x float64) float64 { return x*x*x - 2 }
	root, ok := Bisect(f, 0, 2, 1e-12, 200)
	if !ok {
		t.Fatal("Bisect reported no sign change")
	}
	if want := math.Cbrt(2); !AlmostEqual(root, want, 1e-9) {
		t.Errorf("root = %v, want %v", root, want)
	}
}

func TestBisectNoSignChange(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, ok := Bisect(f, -1, 1, 1e-9, 100); ok {
		t.Error("Bisect found a root where none exists")
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x }
	root, ok := Bisect(f, 0, 1, 1e-9, 100)
	if !ok || root != 0 {
		t.Errorf("Bisect endpoint root = (%v, %v), want (0, true)", root, ok)
	}
}
