package channel

import (
	"math"
	"testing"
	"testing/quick"

	"vtmig/internal/mathx"
)

func TestDefaultSNRMatchesPaper(t *testing.T) {
	// ρ=10 W, h0=0.01, d^-2=4e-6, N0=1e-18 W ⇒ SNR = 4e11.
	p := DefaultParams()
	if got := p.SNR(); !mathx.AlmostEqual(got, 4e11, 1e-9) {
		t.Errorf("SNR = %v, want 4e11", got)
	}
}

func TestDefaultSpectralEfficiency(t *testing.T) {
	p := DefaultParams()
	got := p.SpectralEfficiency()
	want := math.Log2(1 + 4e11) // ≈ 38.54
	if !mathx.AlmostEqual(got, want, 1e-12) {
		t.Errorf("e = %v, want %v", got, want)
	}
	if got < 38.5 || got > 38.6 {
		t.Errorf("e = %v, expected ≈38.54 from the paper's parameters", got)
	}
}

func TestRateLinearInBandwidth(t *testing.T) {
	p := DefaultParams()
	r1 := p.Rate(1)
	r2 := p.Rate(2)
	if !mathx.AlmostEqual(r2, 2*r1, 1e-12) {
		t.Errorf("rate not linear: Rate(2)=%v, 2*Rate(1)=%v", r2, 2*r1)
	}
	if p.Rate(0) != 0 {
		t.Errorf("Rate(0) = %v, want 0", p.Rate(0))
	}
}

func TestRateNegativeBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rate(-1) did not panic")
		}
	}()
	DefaultParams().Rate(-1)
}

func TestSNRDecreasesWithDistance(t *testing.T) {
	p := DefaultParams()
	near := p
	near.DistanceM = 100
	far := p
	far.DistanceM = 1000
	if near.SNR() <= far.SNR() {
		t.Errorf("SNR must decrease with distance: near %v, far %v", near.SNR(), far.SNR())
	}
}

func TestSNRMonotoneProperty(t *testing.T) {
	f := func(seed uint8) bool {
		d := 10 + float64(seed)*10
		p := DefaultParams()
		p.DistanceM = d
		q := p
		q.DistanceM = d * 2
		// ε=2 ⇒ doubling distance divides SNR by 4.
		return mathx.AlmostEqual(p.SNR()/q.SNR(), 4, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Params)
		wantErr bool
	}{
		{"defaults ok", func(*Params) {}, false},
		{"zero distance", func(p *Params) { p.DistanceM = 0 }, true},
		{"negative exponent", func(p *Params) { p.PathLossExp = -1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if err := p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestOFDMAAllocateRelease(t *testing.T) {
	a := NewOFDMAAllocator(10)
	if err := a.Allocate(1, 4); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := a.Allocate(2, 6); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if got := a.Available(); got != 0 {
		t.Errorf("Available = %v, want 0", got)
	}
	if err := a.Allocate(3, 0.1); err == nil {
		t.Error("over-subscription succeeded")
	}
	if err := a.Release(1); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := a.Available(); got != 4 {
		t.Errorf("Available after release = %v, want 4", got)
	}
	if a.Grant(2) != 6 {
		t.Errorf("Grant(2) = %v, want 6", a.Grant(2))
	}
	if a.Grant(1) != 0 {
		t.Errorf("Grant(1) after release = %v, want 0", a.Grant(1))
	}
}

// TestOFDMAAvailableNeverNegative pins the rounding-residue clamp: the
// Allocate slack admits grants whose float sum exceeds capacity by one
// ulp (the fixture is a real ScaleToFit output for a 0.5 MHz pool whose
// scaled demands sum to 0.5 + 2⁻⁵³), and Available must report that full
// pool as 0, not as a negative residue. Found by FuzzGridSimSteps, whose
// corpus keeps the input; the simulator treats negative availability as
// corrupted accounting.
func TestOFDMAAvailableNeverNegative(t *testing.T) {
	a := NewOFDMAAllocator(0.5)
	grants := []float64{
		0.19058546444871988,
		0.13466694581334054,
		0.08869872999763292,
		0.08604885974030677,
	}
	for owner, bw := range grants {
		if err := a.Allocate(owner, bw); err != nil {
			t.Fatalf("Allocate(%d, %v): %v", owner, bw, err)
		}
	}
	if a.Used() <= a.Capacity() {
		t.Fatalf("fixture no longer overshoots: used %v <= capacity %v", a.Used(), a.Capacity())
	}
	if got := a.Available(); got != 0 {
		t.Errorf("Available = %v, want exactly 0", got)
	}
}

func TestOFDMARejectsDuplicateOwner(t *testing.T) {
	a := NewOFDMAAllocator(10)
	if err := a.Allocate(1, 1); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := a.Allocate(1, 1); err == nil {
		t.Error("duplicate owner allocation succeeded")
	}
}

func TestOFDMARejectsNonPositive(t *testing.T) {
	a := NewOFDMAAllocator(10)
	if err := a.Allocate(1, 0); err == nil {
		t.Error("zero allocation succeeded")
	}
	if err := a.Allocate(1, -2); err == nil {
		t.Error("negative allocation succeeded")
	}
}

func TestOFDMAReleaseUnknownOwner(t *testing.T) {
	a := NewOFDMAAllocator(10)
	if err := a.Release(7); err == nil {
		t.Error("releasing unknown owner succeeded")
	}
}

func TestOFDMAGrantsSorted(t *testing.T) {
	a := NewOFDMAAllocator(10)
	for _, owner := range []int{3, 1, 2} {
		if err := a.Allocate(owner, 1); err != nil {
			t.Fatalf("Allocate(%d): %v", owner, err)
		}
	}
	grants := a.Grants()
	if len(grants) != 3 {
		t.Fatalf("grants = %d, want 3", len(grants))
	}
	for i, want := range []int{1, 2, 3} {
		if grants[i].Owner != want {
			t.Errorf("grants[%d].Owner = %d, want %d", i, grants[i].Owner, want)
		}
	}
}

func TestOFDMACapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewOFDMAAllocator(0) did not panic")
		}
	}()
	NewOFDMAAllocator(0)
}

func TestScaleToFitNoScalingNeeded(t *testing.T) {
	a := NewOFDMAAllocator(10)
	out, scale := a.ScaleToFit([]float64{2, 3})
	if scale != 1 {
		t.Errorf("scale = %v, want 1", scale)
	}
	if out[0] != 2 || out[1] != 3 {
		t.Errorf("out = %v, want [2 3]", out)
	}
}

func TestScaleToFitShrinksProportionally(t *testing.T) {
	a := NewOFDMAAllocator(10)
	out, scale := a.ScaleToFit([]float64{15, 5})
	if !mathx.AlmostEqual(scale, 0.5, 1e-12) {
		t.Errorf("scale = %v, want 0.5", scale)
	}
	if !mathx.AlmostEqual(out[0], 7.5, 1e-12) || !mathx.AlmostEqual(out[1], 2.5, 1e-12) {
		t.Errorf("out = %v, want [7.5 2.5]", out)
	}
	if !mathx.AlmostEqual(mathx.Sum(out), 10, 1e-12) {
		t.Errorf("scaled sum = %v, want capacity 10", mathx.Sum(out))
	}
}

// Conservation property: Σ grants + available == capacity under any
// sequence of allocations and releases.
func TestOFDMAConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		a := NewOFDMAAllocator(100)
		for i, op := range ops {
			owner := i % 7
			if op%2 == 0 {
				_ = a.Allocate(owner, float64(op%50)+0.5)
			} else {
				_ = a.Release(owner)
			}
			var total float64
			for _, g := range a.Grants() {
				total += g.Bandwidth
			}
			if !mathx.AlmostEqual(total+a.Available(), a.Capacity(), 1e-9) {
				return false
			}
			if a.Used() > a.Capacity()+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
