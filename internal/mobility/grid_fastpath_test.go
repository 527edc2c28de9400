package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceServingRSU is the original O(Rows×Cols) scan, kept verbatim as
// the oracle for the fast path.
func referenceServingRSU(g *Grid, v *Vehicle, down []bool) (int, bool) {
	best, bestDist := -1, math.Inf(1)
	fallback, fallbackDist := -1, math.Inf(1)
	for id := 0; id < g.RSUCount(); id++ {
		x, y := g.rsuXY(id)
		d := math.Hypot(v.X-x, v.Y-y)
		if d < fallbackDist {
			fallback, fallbackDist = id, d
		}
		if len(down) > id && down[id] {
			continue
		}
		if d < bestDist {
			best, bestDist = id, d
		}
	}
	if best < 0 {
		return fallback, false
	}
	return best, bestDist <= g.RadiusM
}

// namedMask is one down mask a fast-path comparison runs under.
type namedMask struct {
	name string
	down []bool
}

// servingMasks returns the down masks every trajectory step is compared
// under: nil, all-false, a mask shorter than RSUCount (ids past its end
// count as live), random masks at densities 0.05, 0.3 and 1, and a mask
// with the vehicle's nearest RSU down.
func servingMasks(g *Grid, v *Vehicle, rng *rand.Rand) []namedMask {
	n := g.RSUCount()
	random := func(length int, density float64) []bool {
		m := make([]bool, length)
		for i := range m {
			m[i] = rng.Float64() < density
		}
		return m
	}
	nearest, _ := referenceServingRSU(g, v, nil)
	return []namedMask{
		{"nil", nil},
		{"all-false", make([]bool, n)},
		{"short", random(n/2, 0.5)},
		{"density 0.05", random(n, 0.05)},
		{"density 0.3", random(n, 0.3)},
		{"density 1", random(n, 1)},
		{"nearest down", oneDown(n, nearest)},
	}
}

// oneDown returns an n-RSU mask with only id down.
func oneDown(n, id int) []bool {
	m := make([]bool, n)
	m[id] = true
	return m
}

// TestServingRSUFastPathMatchesScan drives vehicles along randomized
// grids (including irrational spacings that stress the float-exactness
// checks) and requires the fast path to agree with the reference scan at
// every step of every trajectory, under every mask of servingMasks. It
// also plants vehicles midway between each pair of adjacent
// intersections, where the scan's first-minimum rule breaks a tie
// towards the lower id, and compares them with either id down.
func TestServingRSUFastPathMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		rows := 2 + rng.Intn(6)
		cols := 2 + rng.Intn(6)
		spacing := []float64{500, 333.3, 1000 * math.Sqrt2, 0.125, 77.7}[rng.Intn(5)]
		g, err := NewGrid(rows, cols, spacing, spacing*0.75, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		check := func(v *Vehicle, m namedMask, where string) {
			t.Helper()
			gotID, gotCov := g.ServingRSU(v, m.down)
			wantID, wantCov := referenceServingRSU(g, v, m.down)
			if gotID != wantID || gotCov != wantCov {
				t.Fatalf("trial %d %s, mask %s at (%v, %v): fast path (%d, %v), scan (%d, %v)",
					trial, where, m.name, v.X, v.Y, gotID, gotCov, wantID, wantCov)
			}
		}
		v := &Vehicle{ID: trial, SpeedMps: 5 + rng.Float64()*30}
		g.Place(v, rng)
		for step := 0; step < 200; step++ {
			g.Advance(v, 0.5+rng.Float64())
			for _, m := range servingMasks(g, v, rng) {
				check(v, m, fmt.Sprintf("step %d", step))
			}
		}
		n := g.RSUCount()
		tie := func(v *Vehicle, lo, hi int) {
			t.Helper()
			check(v, namedMask{"lower id down", oneDown(n, lo)}, "tie")
			check(v, namedMask{"higher id down", oneDown(n, hi)}, "tie")
		}
		for id := 0; id < n; id++ {
			x, y := float64(id%cols)*spacing, float64(id/cols)*spacing
			if id%cols+1 < cols {
				tie(&Vehicle{X: x + spacing/2, Y: y}, id, id+1)
			}
			if id/cols+1 < rows {
				tie(&Vehicle{X: x, Y: y + spacing/2}, id, id+cols)
			}
		}
	}
}

// TestServingRSUFastPathOffStreetFallsBack plants vehicles off any exact
// street coordinate — the fast path must decline and the scan answer.
func TestServingRSUFastPathOffStreetFallsBack(t *testing.T) {
	g, err := NewGrid(3, 4, 500, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		v := &Vehicle{X: rng.Float64() * g.WidthM(), Y: rng.Float64() * g.HeightM()}
		if _, _, ok := g.nearestOnStreet(v); ok {
			// A random planar point can land exactly on a street only with
			// probability ~0; if it does, the fast path must still agree.
			t.Logf("point (%v, %v) resolved on-street", v.X, v.Y)
		}
		gotID, gotCov := g.ServingRSU(v, nil)
		wantID, wantCov := referenceServingRSU(g, v, nil)
		if gotID != wantID || gotCov != wantCov {
			t.Fatalf("off-street (%v, %v): fast path (%d, %v), scan (%d, %v)", v.X, v.Y, gotID, gotCov, wantID, wantCov)
		}
	}
}

// TestServingRSUWithOutagesUsesScan pins the fast path's fallback: when
// the vehicle's nearest RSU is down, the scan answers and re-homes the
// vehicle to the nearest live RSU — for a tie, to the higher id when the
// lower one is down.
func TestServingRSUWithOutagesUsesScan(t *testing.T) {
	g, err := NewGrid(3, 3, 500, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		v      *Vehicle
		downID int
		want   int
	}{
		{"on a down RSU", &Vehicle{X: 500, Y: 0}, 1, 0},
		{"tie, lower id down", &Vehicle{X: 250, Y: 0}, 0, 1},
		{"tie, higher id down", &Vehicle{X: 250, Y: 0}, 1, 0},
	} {
		down := oneDown(g.RSUCount(), c.downID)
		gotID, gotCov := g.ServingRSU(c.v, down)
		wantID, wantCov := referenceServingRSU(g, c.v, down)
		if gotID != wantID || gotCov != wantCov {
			t.Fatalf("%s: fast path (%d, %v), scan (%d, %v)", c.name, gotID, gotCov, wantID, wantCov)
		}
		if gotID != c.want || !gotCov {
			t.Fatalf("%s: serving (%d, %v), want (%d, true)", c.name, gotID, gotCov, c.want)
		}
	}
}

// TestPlacePrewarmsTurnStream pins that Place stores the vehicle's turn
// stream, seeded from (TurnSeed, id) and undrawn, so Advance never seeds
// one during a tick; a vehicle built without Place gets the same stream
// on its first turn.
func TestPlacePrewarmsTurnStream(t *testing.T) {
	g, err := NewGrid(3, 3, 100, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for id := 0; id < 10; id++ {
		v := &Vehicle{ID: id, SpeedMps: 50}
		g.Place(v, rng)
		if v.turn == nil {
			t.Fatalf("Place did not create the turn stream for vehicle %d", id)
		}
		if got, want := v.turn.Float64(), g.newTurnStream(id).Float64(); got != want {
			t.Fatalf("vehicle %d: placed turn stream drew %v first, want %v", id, got, want)
		}
		placed := v.turn
		g.Advance(v, 10)
		if v.turn != placed {
			t.Fatalf("Advance replaced vehicle %d's placed turn stream", id)
		}
	}
	bare := &Vehicle{ID: 4, SpeedMps: 50, DirX: 1}
	seeded := &Vehicle{ID: 4, SpeedMps: 50, DirX: 1, turn: g.newTurnStream(4)}
	for step := 0; step < 20; step++ {
		g.Advance(bare, 10)
		g.Advance(seeded, 10)
		if exported(*bare) != exported(*seeded) {
			t.Fatalf("step %d: vehicle without Place at %+v, with a seeded stream at %+v", step, exported(*bare), exported(*seeded))
		}
	}
}

// BenchmarkGridServingRSU times one serving-RSU lookup on the metro-10k
// grid (12×16 intersections 400 m apart) over a placed fleet, with no
// outage and with one RSU down.
func BenchmarkGridServingRSU(b *testing.B) {
	g, err := NewGrid(12, 16, 400, 320, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	fleet := make([]*Vehicle, 4096)
	for i := range fleet {
		fleet[i] = &Vehicle{ID: i, SpeedMps: 10 + 20*rng.Float64()}
		g.Place(fleet[i], rng)
		g.Advance(fleet[i], 60*rng.Float64())
	}
	for _, m := range []namedMask{{"nil", nil}, {"one-down", oneDown(g.RSUCount(), 5*g.Cols+7)}} {
		b.Run(m.name, func(b *testing.B) {
			i := 0
			for b.Loop() {
				g.ServingRSU(fleet[i%len(fleet)], m.down)
				i++
			}
		})
	}
}
