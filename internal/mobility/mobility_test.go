package mobility

import (
	"testing"
	"testing/quick"

	"vtmig/internal/mathx"
)

func highway(t *testing.T) *Highway {
	t.Helper()
	h, err := NewHighway(4000, 4, 500)
	if err != nil {
		t.Fatalf("NewHighway: %v", err)
	}
	return h
}

func TestNewHighwaySpacing(t *testing.T) {
	h := highway(t)
	wantPos := []float64{0, 1000, 2000, 3000}
	if len(h.RSUs) != 4 {
		t.Fatalf("RSU count = %d, want 4", len(h.RSUs))
	}
	for i, r := range h.RSUs {
		if r.PositionM != wantPos[i] {
			t.Errorf("RSU %d at %v, want %v", i, r.PositionM, wantPos[i])
		}
	}
}

func TestNewHighwayValidation(t *testing.T) {
	for _, tc := range []struct {
		name           string
		length, radius float64
		count          int
	}{
		{"zero length", 0, 500, 4},
		{"zero rsus", 4000, 500, 0},
		{"zero radius", 4000, 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewHighway(tc.length, tc.count, tc.radius); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestFullCoverage(t *testing.T) {
	full, err := NewHighway(4000, 4, 500) // spacing 1000, radius 500 => covered
	if err != nil {
		t.Fatal(err)
	}
	if !full.FullCoverage() {
		t.Error("radius = spacing/2 should give full coverage")
	}
	gaps, err := NewHighway(4000, 4, 400)
	if err != nil {
		t.Fatal(err)
	}
	if gaps.FullCoverage() {
		t.Error("radius < spacing/2 cannot give full coverage")
	}
}

func TestNearestRSU(t *testing.T) {
	h := highway(t)
	tests := []struct {
		pos     float64
		wantID  int
		covered bool
	}{
		{0, 0, true},
		{100, 0, true},
		{600, 1, true},  // closer to RSU 1 at 1000
		{1499, 1, true}, // just inside RSU 1
		{3900, 0, true}, // wraps: closer to RSU 0 at 0
		{2500, 2, true}, // equidistant boundary between 2 and 3; ties to 2
	}
	for _, tt := range tests {
		rsu, cov := h.NearestRSU(tt.pos)
		if rsu.ID != tt.wantID || cov != tt.covered {
			t.Errorf("NearestRSU(%v) = (%d, %v), want (%d, %v)", tt.pos, rsu.ID, cov, tt.wantID, tt.covered)
		}
	}
}

func TestRSUDistanceWraps(t *testing.T) {
	h := highway(t)
	if got := h.RSUDistance(0, 1); got != 1000 {
		t.Errorf("distance(0,1) = %v, want 1000", got)
	}
	// RSU 0 at 0 m and RSU 3 at 3000 m are 1000 m apart around the wrap.
	if got := h.RSUDistance(0, 3); got != 1000 {
		t.Errorf("distance(0,3) = %v, want 1000 (circular)", got)
	}
}

func TestVehicleAdvanceWraps(t *testing.T) {
	v := &Vehicle{ID: 0, PositionM: 3900, SpeedMps: 30}
	v.Advance(10, 4000) // 3900 + 300 = 4200 -> 200
	if !mathx.AlmostEqual(v.PositionM, 200, 1e-9) {
		t.Errorf("position = %v, want 200", v.PositionM)
	}
}

func TestVehicleAdvanceNegativeDtPanics(t *testing.T) {
	v := &Vehicle{}
	defer func() {
		if recover() == nil {
			t.Fatal("negative dt did not panic")
		}
	}()
	v.Advance(-1, 4000)
}

// Driving around the loop must visit the RSUs in order without skips:
// the changes of the nearest RSU are the handovers the simulator detects.
func TestNearestRSUSequenceAroundTheLoop(t *testing.T) {
	h := highway(t)
	v := &Vehicle{ID: 2, PositionM: 0, SpeedMps: 25}
	var seq []int
	for step := 0; step < 200; step++ {
		if r, _ := h.NearestRSU(v.PositionM); len(seq) == 0 || seq[len(seq)-1] != r.ID {
			seq = append(seq, r.ID)
		}
		v.Advance(1, h.LengthM)
	}
	// 200 s × 25 m/s = 5000 m: a full loop plus a quarter. The serving
	// sequence must be 0,1,2,3,0,1 without skips.
	want := []int{0, 1, 2, 3, 0, 1}
	if len(seq) != len(want) {
		t.Fatalf("serving sequence = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("serving sequence = %v, want %v", seq, want)
		}
	}
}

// Property: after any advance, the vehicle stays on the highway and the
// nearest RSU is within half the circumference.
func TestAdvanceStaysOnHighwayProperty(t *testing.T) {
	h, err := NewHighway(4000, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos, speed uint16, dt uint8) bool {
		v := &Vehicle{PositionM: float64(pos % 4000), SpeedMps: float64(speed % 50)}
		v.Advance(float64(dt), h.LengthM)
		if v.PositionM < 0 || v.PositionM >= h.LengthM {
			return false
		}
		rsu, _ := h.NearestRSU(v.PositionM)
		return circularDistance(rsu.PositionM, v.PositionM, h.LengthM) <= h.LengthM/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCircularDistance(t *testing.T) {
	tests := []struct {
		a, b, c, want float64
	}{
		{0, 1000, 4000, 1000},
		{0, 3000, 4000, 1000},
		{500, 3500, 4000, 1000},
		{0, 2000, 4000, 2000},
		{100, 100, 4000, 0},
	}
	for _, tt := range tests {
		if got := circularDistance(tt.a, tt.b, tt.c); got != tt.want {
			t.Errorf("circularDistance(%v,%v,%v) = %v, want %v", tt.a, tt.b, tt.c, got, tt.want)
		}
	}
}
