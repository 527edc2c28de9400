package aotm

import (
	"math"
	"testing"
	"testing/quick"

	"vtmig/internal/channel"
	"vtmig/internal/mathx"
)

func TestUnitConversions(t *testing.T) {
	if got := FromMB(200); got != 2 {
		t.Errorf("FromMB(200) = %v, want 2", got)
	}
	if got := ToMB(1.5); got != 150 {
		t.Errorf("ToMB(1.5) = %v, want 150", got)
	}
}

func TestAoTMBasic(t *testing.T) {
	if got := AoTM(2, 4); got != 0.5 {
		t.Errorf("AoTM(2,4) = %v, want 0.5", got)
	}
}

func TestAoTMZeroRateIsInf(t *testing.T) {
	if got := AoTM(1, 0); !math.IsInf(got, 1) {
		t.Errorf("AoTM(1,0) = %v, want +Inf", got)
	}
}

func TestAoTMValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		d, r float64
	}{{"zero data", 0, 1}, {"negative data", -1, 1}, {"negative rate", 1, -1}} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			AoTM(tc.d, tc.r)
		})
	}
}

func TestAoTMForBandwidthMatchesPaperExample(t *testing.T) {
	// D = 200 MB = 2 units, b = 0.135 MHz, e ≈ 38.54 ⇒ A ≈ 2/(0.135*38.54).
	ch := channel.DefaultParams()
	got := AoTMForBandwidth(FromMB(200), 0.135, ch)
	want := 2.0 / (0.135 * ch.SpectralEfficiency())
	if !mathx.AlmostEqual(got, want, 1e-12) {
		t.Errorf("AoTM = %v, want %v", got, want)
	}
}

func TestAoTMDecreasesWithBandwidth(t *testing.T) {
	ch := channel.DefaultParams()
	prev := math.Inf(1)
	for _, b := range []float64{0.01, 0.1, 0.5, 1} {
		a := AoTMForBandwidth(1, b, ch)
		if a >= prev {
			t.Fatalf("AoTM not decreasing at b=%v: %v >= %v", b, a, prev)
		}
		prev = a
	}
}

func TestImmersion(t *testing.T) {
	// G = α ln(1 + 1/A); α=5, A=1 ⇒ 5 ln 2.
	if got, want := Immersion(5, 1), 5*math.Log(2); !mathx.AlmostEqual(got, want, 1e-12) {
		t.Errorf("Immersion = %v, want %v", got, want)
	}
}

func TestImmersionZeroAtInfiniteAge(t *testing.T) {
	if got := Immersion(5, math.Inf(1)); got != 0 {
		t.Errorf("Immersion(inf age) = %v, want 0", got)
	}
}

func TestImmersionValidation(t *testing.T) {
	for _, tc := range []struct {
		name       string
		alpha, age float64
	}{{"zero alpha", 0, 1}, {"negative alpha", -1, 1}, {"zero age", 1, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			Immersion(tc.alpha, tc.age)
		})
	}
}

func TestImmersionForBandwidthClosedForm(t *testing.T) {
	// G(b) = α ln(1 + b·e/D) must match the composition of AoTM and
	// Immersion.
	ch := channel.DefaultParams()
	e := ch.SpectralEfficiency()
	alpha, d, b := 5.0, 2.0, 0.2
	got := ImmersionForBandwidth(alpha, d, b, ch)
	want := alpha * math.Log(1+b*e/d)
	if !mathx.AlmostEqual(got, want, 1e-12) {
		t.Errorf("ImmersionForBandwidth = %v, want %v", got, want)
	}
}

func TestImmersionForBandwidthZero(t *testing.T) {
	if got := ImmersionForBandwidth(5, 1, 0, channel.DefaultParams()); got != 0 {
		t.Errorf("zero bandwidth immersion = %v, want 0", got)
	}
}

// ImmersionForRate at the channel's spectral efficiency must reproduce the
// AoTM-then-immersion composition through channel.Params.Rate bit for bit:
// the solver hoists e and relies on it.
func TestImmersionForRateMatchesComposition(t *testing.T) {
	ch := channel.DefaultParams()
	f := func(a, d, b uint16, dist uint8) bool {
		ch.DistanceM = 50 + float64(dist)*10
		alpha := 0.5 + float64(a)/1000
		size := 0.01 + float64(d)/10000
		bw := float64(b) / 20000
		want := 0.0
		if bw != 0 {
			want = Immersion(alpha, AoTMForBandwidth(size, bw, ch))
		}
		got := ImmersionForRate(alpha, size, bw, ch.SpectralEfficiency())
		return math.Float64bits(got) == math.Float64bits(want) &&
			math.Float64bits(ImmersionForBandwidth(alpha, size, bw, ch)) == math.Float64bits(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImmersionForRateNegativeBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative bandwidth did not panic")
		}
	}()
	ImmersionForRate(5, 1, -0.1, channel.DefaultParams().SpectralEfficiency())
}

// Properties: immersion is increasing in bandwidth and decreasing in data
// size — more bandwidth means fresher migration, bigger twins age more.
func TestImmersionMonotoneProperties(t *testing.T) {
	ch := channel.DefaultParams()
	f := func(seed uint8) bool {
		b := 0.01 + float64(seed%100)/100
		g1 := ImmersionForBandwidth(5, 2, b, ch)
		g2 := ImmersionForBandwidth(5, 2, b+0.05, ch)
		g3 := ImmersionForBandwidth(5, 2.5, b, ch)
		return g2 > g1 && g3 < g1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
