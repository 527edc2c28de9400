package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"vtmig/internal/mathx"
)

// Grid is a Manhattan street grid: Rows horizontal and Cols vertical
// streets crossing at Rows×Cols intersections spaced SpacingM apart, one
// RSU per intersection. Vehicles drive along streets and pick a random
// turn at every intersection from a per-vehicle RNG stream, so each
// trajectory depends only on (TurnSeed, vehicle id, spawn state) — never
// on which other vehicles exist (determinism contract rule 2 applied to
// mobility).
type Grid struct {
	// Rows and Cols count the horizontal and vertical streets.
	Rows, Cols int
	// SpacingM is the distance between adjacent parallel streets.
	SpacingM float64
	// RadiusM is every intersection RSU's coverage radius.
	RadiusM float64
	// TurnSeed salts the per-vehicle turn-decision streams.
	TurnSeed int64
}

// NewGrid builds a Manhattan grid world.
func NewGrid(rows, cols int, spacingM, radiusM float64, turnSeed int64) (*Grid, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("mobility: grid needs at least 2 rows and 2 cols, got %dx%d", rows, cols)
	}
	if spacingM <= 0 {
		return nil, fmt.Errorf("mobility: grid spacing must be positive, got %g", spacingM)
	}
	if radiusM <= 0 {
		return nil, fmt.Errorf("mobility: coverage radius must be positive, got %g", radiusM)
	}
	return &Grid{
		Rows: rows, Cols: cols,
		SpacingM: spacingM, RadiusM: radiusM,
		TurnSeed: turnSeed,
	}, nil
}

// WidthM and HeightM are the grid extents.
func (g *Grid) WidthM() float64  { return float64(g.Cols-1) * g.SpacingM }
func (g *Grid) HeightM() float64 { return float64(g.Rows-1) * g.SpacingM }

// RSUCount implements World: one RSU per intersection.
func (g *Grid) RSUCount() int { return g.Rows * g.Cols }

// rsuXY returns an intersection RSU's planar position.
func (g *Grid) rsuXY(id int) (float64, float64) {
	row, col := id/g.Cols, id%g.Cols
	return float64(col) * g.SpacingM, float64(row) * g.SpacingM
}

// RSUDistance implements World: street (Manhattan/L1) distance between
// the two intersections — backhaul runs along the streets.
func (g *Grid) RSUDistance(a, b int) float64 {
	ax, ay := g.rsuXY(a)
	bx, by := g.rsuXY(b)
	return math.Abs(ax-bx) + math.Abs(ay-by)
}

// Place implements World: the vehicle spawns uniformly on a random
// street, heading in a random along-street direction. Three rng draws,
// always.
func (g *Grid) Place(v *Vehicle, rng *rand.Rand) {
	street := int(rng.Float64() * float64(g.Rows+g.Cols))
	if street >= g.Rows+g.Cols {
		street = g.Rows + g.Cols - 1 // Float64 can return values snapping to the bound
	}
	pos := rng.Float64()
	forward := rng.Float64() < 0.5
	if street < g.Rows {
		// Horizontal street y = street*spacing.
		v.Y = float64(street) * g.SpacingM
		v.X = pos * g.WidthM()
		v.DirX, v.DirY = 1, 0
		if !forward {
			v.DirX = -1
		}
	} else {
		// Vertical street x = (street-Rows)*spacing.
		v.X = float64(street-g.Rows) * g.SpacingM
		v.Y = pos * g.HeightM()
		v.DirX, v.DirY = 0, 1
		if !forward {
			v.DirY = -1
		}
	}
}

// newTurnStream builds a vehicle's private turn-decision stream: the
// stdlib stream rand.NewSource(SplitMix64(TurnSeed, id)), where the
// splitmix64 scramble keeps adjacent ids from producing correlated
// streams. mathx.SeededSource yields that stream bit for bit at O(1)
// creation cost, so a fleet of vehicles that each turn a few times never
// pays for full lag tables.
func (g *Grid) newTurnStream(id int) *rand.Rand {
	return rand.New(mathx.NewSeededSource(mathx.SplitMix64(g.TurnSeed, uint64(id))))
}

// Advance implements World: the vehicle moves SpeedMps·dt along its
// street, turning at each intersection it reaches — uniformly among the
// in-bounds continuations, never reversing unless the intersection is a
// dead end for its heading (grid corners/edges).
func (g *Grid) Advance(v *Vehicle, dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("mobility: negative time step %g", dt))
	}
	dist := v.SpeedMps * dt
	for dist > 0 {
		ahead := g.distToNextIntersection(v)
		if dist < ahead {
			v.X += float64(v.DirX) * dist
			v.Y += float64(v.DirY) * dist
			return
		}
		// Snap exactly onto the intersection and turn there.
		v.X += float64(v.DirX) * ahead
		v.Y += float64(v.DirY) * ahead
		dist -= ahead
		v.X = g.snap(v.X, g.WidthM())
		v.Y = g.snap(v.Y, g.HeightM())
		g.turnAt(v)
	}
}

// distToNextIntersection measures along the current heading to the next
// street crossing (always > 0: callers sit exactly on an intersection
// only right after turnAt, which leaves a fresh heading).
func (g *Grid) distToNextIntersection(v *Vehicle) float64 {
	if v.DirX != 0 {
		return nextCrossing(v.X, float64(v.DirX), g.SpacingM, g.WidthM())
	}
	return nextCrossing(v.Y, float64(v.DirY), g.SpacingM, g.HeightM())
}

// nextCrossing returns the positive distance from coordinate p (moving in
// direction dir ∈ {+1,-1}) to the next multiple of spacing within
// [0, limit].
func nextCrossing(p, dir, spacing, limit float64) float64 {
	idx := p / spacing
	if dir > 0 {
		next := math.Floor(idx+1e-9) + 1
		target := math.Min(next*spacing, limit)
		return target - p
	}
	prev := math.Ceil(idx-1e-9) - 1
	target := math.Max(prev*spacing, 0)
	return p - target
}

// snap collapses float dust onto exact intersection coordinates and
// clamps to the grid extent.
func (g *Grid) snap(p, limit float64) float64 {
	idx := math.Round(p / g.SpacingM)
	if snapped := idx * g.SpacingM; math.Abs(snapped-p) < 1e-6 {
		p = snapped
	}
	return math.Min(math.Max(p, 0), limit)
}

// turnAt picks the vehicle's next heading at the intersection it is
// standing on: uniform among in-bounds directions excluding the reverse,
// falling back to the reverse at dead ends. One rng draw, always, from
// the vehicle's turn stream, which the vehicle's first turn creates. The
// stream is per-vehicle state: it leaves with the vehicle, and no other
// vehicle's turns draw from it.
func (g *Grid) turnAt(v *Vehicle) {
	if v.turn == nil {
		v.turn = g.newTurnStream(v.ID)
	}
	u := v.turn.Float64()
	type dir struct{ dx, dy int }
	options := make([]dir, 0, 3)
	for _, d := range [4]dir{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		if d.dx == -v.DirX && d.dy == -v.DirY {
			continue
		}
		nx := v.X + float64(d.dx)*g.SpacingM
		ny := v.Y + float64(d.dy)*g.SpacingM
		if nx < -1e-9 || nx > g.WidthM()+1e-9 || ny < -1e-9 || ny > g.HeightM()+1e-9 {
			continue
		}
		options = append(options, d)
	}
	if len(options) == 0 {
		v.DirX, v.DirY = -v.DirX, -v.DirY
		return
	}
	pick := int(u * float64(len(options)))
	if pick >= len(options) {
		pick = len(options) - 1
	}
	v.DirX, v.DirY = options[pick].dx, options[pick].dy
}

// ServingRSU implements World: the nearest live intersection RSU by
// Euclidean distance.
//
// The answer usually comes from an O(1) fast path instead of the
// O(Rows×Cols) scan: a vehicle always sits exactly on a street (Place and
// snap keep the perpendicular coordinate an exact multiple of SpacingM),
// so the nearest RSU is among the few intersections of that street around
// the vehicle, and every off-street RSU is strictly farther whenever the
// on-street minimum beats the adjacent parallel streets' perpendicular
// offsets. The fast path replicates the scan's id-ascending strict-<
// tie-breaking, so it finds the scan's first global minimum. It applies
// under any down mask whenever that RSU is live: every lower id is then
// strictly farther and no RSU is nearer, so it is also the first minimum
// among the live RSUs. The scan answers when the nearest RSU is down, the
// vehicle is off-street, or an exactness or domination check fails, so
// results are bit-identical.
func (g *Grid) ServingRSU(v *Vehicle, down []bool) (int, bool) {
	if id, d, ok := g.nearestOnStreet(v); ok && (id >= len(down) || !down[id]) {
		return id, d <= g.RadiusM
	}
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

// nearestOnStreet resolves the nearest RSU for a vehicle sitting exactly
// on a street. It reports ok=false when the vehicle is on no exact street
// (float dust the caller's snap has not collapsed yet) or when a
// domination check fails; callers then run the full scan.
func (g *Grid) nearestOnStreet(v *Vehicle) (int, float64, bool) {
	if row, ok := g.exactStreetIndex(v.Y, g.Rows); ok {
		return g.nearestInRow(v, row)
	}
	if col, ok := g.exactStreetIndex(v.X, g.Cols); ok {
		return g.nearestInCol(v, col)
	}
	return 0, 0, false
}

// exactStreetIndex reports whether p is exactly idx*SpacingM for an
// in-range street index idx. Exact float equality is the point: only then
// does the scan's Hypot collapse to a pure 1-D distance on this street.
func (g *Grid) exactStreetIndex(p float64, count int) (int, bool) {
	idx := int(math.Round(p / g.SpacingM))
	if idx < 0 || idx >= count {
		return 0, false
	}
	return idx, float64(idx)*g.SpacingM == p
}

// nearestInRow finds the nearest RSU of a horizontal street (fixed row),
// checking the candidate columns around the vehicle in ascending-id order
// with the scan's strict-< rule, then verifying the winner strictly beats
// the perpendicular offset to both adjacent rows — which lower-bounds
// (via Hypot ≥ |Δy|, monotone in the row gap) the distance to every RSU
// outside this row.
func (g *Grid) nearestInRow(v *Vehicle, row int) (int, float64, bool) {
	col, d, ok := g.nearestAlong(v.X, g.Cols)
	if !ok {
		return 0, 0, false
	}
	if row > 0 && !(d < math.Abs(v.Y-float64(row-1)*g.SpacingM)) {
		return 0, 0, false
	}
	if row+1 < g.Rows && !(d < math.Abs(float64(row+1)*g.SpacingM-v.Y)) {
		return 0, 0, false
	}
	return row*g.Cols + col, d, true
}

// nearestInCol is nearestInRow's transpose for a vertical street: within
// the column, ascending row equals ascending id, so the same strict-<
// candidate order replicates the scan.
func (g *Grid) nearestInCol(v *Vehicle, col int) (int, float64, bool) {
	row, d, ok := g.nearestAlong(v.Y, g.Rows)
	if !ok {
		return 0, 0, false
	}
	if col > 0 && !(d < math.Abs(v.X-float64(col-1)*g.SpacingM)) {
		return 0, 0, false
	}
	if col+1 < g.Cols && !(d < math.Abs(float64(col+1)*g.SpacingM-v.X)) {
		return 0, 0, false
	}
	return row*g.Cols + col, d, true
}

// nearestAlong picks the street index minimizing |p − idx*SpacingM| among
// the candidates around p, iterating in ascending index order with strict
// < — exactly the scan's first-minimum-wins tie-breaking. The ±1 window
// around the floored quotient absorbs float-division slop.
func (g *Grid) nearestAlong(p float64, count int) (int, float64, bool) {
	c0 := int(math.Floor(p / g.SpacingM))
	lo, hi := c0-1, c0+2
	if lo < 0 {
		lo = 0
	}
	if hi > count-1 {
		hi = count - 1
	}
	if lo > hi {
		return 0, 0, false
	}
	best, bestDist := -1, math.Inf(1)
	for c := lo; c <= hi; c++ {
		if d := math.Abs(p - float64(c)*g.SpacingM); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best, bestDist, best >= 0
}

var _ World = (*Grid)(nil)
var _ World = (*Highway)(nil)
