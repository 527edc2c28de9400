package mobility

import (
	"math"
	"math/rand"
	"testing"
)

func mustGrid(t *testing.T, rows, cols int, spacing, radius float64, seed int64) *Grid {
	t.Helper()
	g, err := NewGrid(rows, cols, spacing, radius, seed)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	cases := []struct {
		name            string
		rows, cols      int
		spacing, radius float64
	}{
		{"one row", 1, 4, 100, 150},
		{"one col", 4, 1, 100, 150},
		{"zero spacing", 3, 3, 0, 150},
		{"negative radius", 3, 3, 100, -1},
	}
	for _, c := range cases {
		if _, err := NewGrid(c.rows, c.cols, c.spacing, c.radius, 1); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
}

func TestGridGeometry(t *testing.T) {
	g := mustGrid(t, 3, 4, 100, 80, 1)
	if got := g.RSUCount(); got != 12 {
		t.Fatalf("RSUCount = %d, want 12", got)
	}
	if w, h := g.WidthM(), g.HeightM(); w != 300 || h != 200 {
		t.Fatalf("extent = %gx%g, want 300x200", w, h)
	}
	// RSU 0 is at (0,0); RSU 11 is row 2, col 3 → (300,200); Manhattan
	// street distance 500.
	if d := g.RSUDistance(0, 11); d != 500 {
		t.Fatalf("RSUDistance(0,11) = %g, want 500", d)
	}
	if d := g.RSUDistance(5, 5); d != 0 {
		t.Fatalf("RSUDistance(5,5) = %g, want 0", d)
	}
	if d, want := g.RSUDistance(1, 2), 100.0; d != want {
		t.Fatalf("RSUDistance(1,2) = %g, want %g", d, want)
	}
}

// vehicles must stay on streets and inside the grid under long advances.
func TestGridAdvanceStaysOnStreets(t *testing.T) {
	g := mustGrid(t, 4, 5, 250, 180, 7)
	rng := rand.New(rand.NewSource(42))
	for id := 0; id < 10; id++ {
		v := &Vehicle{ID: id, SpeedMps: 10 + rng.Float64()*25}
		g.Place(v, rng)
		for step := 0; step < 500; step++ {
			g.Advance(v, 1.0)
			if v.X < -1e-9 || v.X > g.WidthM()+1e-9 || v.Y < -1e-9 || v.Y > g.HeightM()+1e-9 {
				t.Fatalf("vehicle %d escaped grid at step %d: (%g,%g)", id, step, v.X, v.Y)
			}
			onVert := math.Abs(v.X-math.Round(v.X/g.SpacingM)*g.SpacingM) < 1e-6
			onHoriz := math.Abs(v.Y-math.Round(v.Y/g.SpacingM)*g.SpacingM) < 1e-6
			if !onVert && !onHoriz {
				t.Fatalf("vehicle %d off-street at step %d: (%g,%g)", id, step, v.X, v.Y)
			}
			if (v.DirX != 0) == (v.DirY != 0) {
				t.Fatalf("vehicle %d has invalid heading (%d,%d)", id, v.DirX, v.DirY)
			}
		}
	}
}

// a vehicle's trajectory must depend only on (TurnSeed, id, spawn state),
// never on which other vehicles share the grid (determinism rule 2). The
// comparison covers the exported fields: each run's vehicle carries its
// own turn stream.
func TestGridTrajectoryIndependence(t *testing.T) {
	run := func(ids []int, track int) []Vehicle {
		g := mustGrid(t, 4, 4, 200, 150, 99)
		vs := make(map[int]*Vehicle)
		rng := rand.New(rand.NewSource(5))
		for _, id := range ids {
			v := &Vehicle{ID: id, SpeedMps: 15}
			if id == track {
				// Fixed spawn for the tracked vehicle so both runs start it
				// identically regardless of rng interleaving.
				v.X, v.Y, v.DirX, v.DirY = 0, 200, 1, 0
			} else {
				g.Place(v, rng)
			}
			vs[id] = v
		}
		var traj []Vehicle
		for step := 0; step < 200; step++ {
			for _, id := range ids {
				g.Advance(vs[id], 1.0)
			}
			traj = append(traj, *vs[track])
		}
		return traj
	}
	alone := run([]int{3}, 3)
	crowded := run([]int{0, 1, 2, 3, 4, 5}, 3)
	for i := range alone {
		if exported(alone[i]) != exported(crowded[i]) {
			t.Fatalf("step %d: trajectory differs with other vehicles present: alone %+v crowded %+v", i, exported(alone[i]), exported(crowded[i]))
		}
	}
}

// exported strips a vehicle down to its exported fields, dropping the
// turn stream pointer, which differs between any two vehicles.
func exported(v Vehicle) Vehicle {
	return Vehicle{ID: v.ID, PositionM: v.PositionM, SpeedMps: v.SpeedMps, X: v.X, Y: v.Y, DirX: v.DirX, DirY: v.DirY}
}

func TestGridPlaceDeterministic(t *testing.T) {
	g := mustGrid(t, 3, 3, 100, 80, 1)
	a := rand.New(rand.NewSource(11))
	b := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		va := &Vehicle{ID: i}
		vb := &Vehicle{ID: i}
		g.Place(va, a)
		g.Place(vb, b)
		if exported(*va) != exported(*vb) {
			t.Fatalf("Place not deterministic: %+v vs %+v", exported(*va), exported(*vb))
		}
		onVert := math.Abs(va.X-math.Round(va.X/g.SpacingM)*g.SpacingM) < 1e-6
		onHoriz := math.Abs(va.Y-math.Round(va.Y/g.SpacingM)*g.SpacingM) < 1e-6
		if !onVert && !onHoriz {
			t.Fatalf("Place off-street: (%g,%g)", va.X, va.Y)
		}
	}
}

func TestGridServingRSU(t *testing.T) {
	g := mustGrid(t, 3, 3, 100, 60, 1)
	v := &Vehicle{X: 10, Y: 0}
	id, covered := g.ServingRSU(v, nil)
	if id != 0 || !covered {
		t.Fatalf("ServingRSU near origin = (%d,%v), want (0,true)", id, covered)
	}
	// Mid-block: nearest RSU is 50 m away, within the 60 m radius.
	v = &Vehicle{X: 50, Y: 0}
	if _, covered := g.ServingRSU(v, nil); !covered {
		t.Fatal("mid-block position should be covered with radius 60")
	}
	// RSU 0 down: the vehicle at (10,0) re-homes to RSU 1 at (100,0),
	// 90 m away — outside coverage.
	down := make([]bool, g.RSUCount())
	down[0] = true
	id, covered = g.ServingRSU(&Vehicle{X: 10, Y: 0}, down)
	if id != 1 || covered {
		t.Fatalf("ServingRSU with RSU0 down = (%d,%v), want (1,false)", id, covered)
	}
	// Everything down: fall back to the nearest RSU, uncovered.
	for i := range down {
		down[i] = true
	}
	id, covered = g.ServingRSU(&Vehicle{X: 10, Y: 0}, down)
	if id != 0 || covered {
		t.Fatalf("ServingRSU all down = (%d,%v), want (0,false)", id, covered)
	}
}

func TestHighwayServingRSUMatchesNearest(t *testing.T) {
	h, err := NewHighway(8000, 8, 600)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0.0; pos < 8000; pos += 37.5 {
		v := &Vehicle{PositionM: pos}
		id, covered := h.ServingRSU(v, nil)
		r, wantCovered := h.NearestRSU(pos)
		if id != r.ID || covered != wantCovered {
			t.Fatalf("pos %g: ServingRSU = (%d,%v), NearestRSU = (%d,%v)", pos, id, covered, r.ID, wantCovered)
		}
	}
	// With an outage the serving RSU moves to a live neighbour.
	down := make([]bool, 8)
	down[2] = true
	v := &Vehicle{PositionM: 2000} // exactly on RSU 2
	id, _ := h.ServingRSU(v, down)
	if id == 2 {
		t.Fatal("down RSU must never serve")
	}
}

func TestTrackerObserveForget(t *testing.T) {
	h, err := NewHighway(1000, 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(h)
	ho, changed := tr.Observe(7, 1)
	if !changed || ho.FromRSU != -1 || ho.ToRSU != 1 {
		t.Fatalf("first observe = (%+v,%v)", ho, changed)
	}
	if _, changed := tr.Observe(7, 1); changed {
		t.Fatal("same RSU should not be a handover")
	}
	ho, changed = tr.Observe(7, 0)
	if !changed || ho.FromRSU != 1 || ho.ToRSU != 0 {
		t.Fatalf("handover = (%+v,%v)", ho, changed)
	}
	tr.Forget(7)
	if got := tr.Serving(7); got != -1 {
		t.Fatalf("Serving after Forget = %d, want -1", got)
	}
	ho, _ = tr.Observe(7, 0)
	if ho.FromRSU != -1 {
		t.Fatalf("re-attach after Forget should look like a first attach, got from=%d", ho.FromRSU)
	}
}
