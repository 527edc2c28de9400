// Package mobility provides the vehicular substrate of the simulation:
// road worlds (a circular highway and a Manhattan grid) with RSUs of
// limited coverage, vehicles with simple kinematics, and the serving-RSU
// lookup whose changes — handovers, detected by the simulator — trigger
// VT migrations in the paper's system model.
package mobility

import (
	"fmt"
	"math"
	"math/rand"
)

// World abstracts a road network for the simulator: it places and moves
// vehicles, owns the RSU layout, decides which RSU serves a vehicle, and
// measures inter-RSU distances (the d of the migration channel model).
//
// Implementations must be deterministic: Place draws only from the rng it
// is handed, and Advance consumes randomness (if any) only from streams
// derived from the vehicle's ID, so one vehicle's trajectory never
// depends on which other vehicles exist.
type World interface {
	// RSUCount is the number of RSUs in the world; ids are 0..RSUCount-1.
	RSUCount() int
	// RSUDistance is the network distance between two RSUs in meters.
	RSUDistance(a, b int) float64
	// Place positions a freshly spawned vehicle using draws from rng.
	Place(v *Vehicle, rng *rand.Rand)
	// Advance moves the vehicle for dt seconds.
	Advance(v *Vehicle, dt float64)
	// ServingRSU returns the id of the RSU serving the vehicle and
	// whether that RSU's coverage actually reaches it. down marks RSUs in
	// outage (nil: all up); a down RSU never serves, so vehicles near it
	// attach to the nearest live one — or, if every RSU is down, to the
	// nearest RSU regardless, uncovered.
	ServingRSU(v *Vehicle, down []bool) (int, bool)
}

// RSU is one roadside unit.
type RSU struct {
	// ID is unique within a highway.
	ID int
	// PositionM is the RSU's location along the highway in meters.
	PositionM float64
	// RadiusM is the coverage radius in meters.
	RadiusM float64
}

// Covers reports whether the RSU covers a position on a highway of the
// given circular length.
func (r RSU) Covers(posM, highwayLenM float64) bool {
	return circularDistance(r.PositionM, posM, highwayLenM) <= r.RadiusM
}

// Highway is a circular road with RSUs.
type Highway struct {
	// LengthM is the circumference in meters.
	LengthM float64
	// RSUs are sorted by position.
	RSUs []RSU
}

// NewHighway builds a highway of the given length with count RSUs spaced
// evenly, each with the given coverage radius.
func NewHighway(lengthM float64, count int, radiusM float64) (*Highway, error) {
	if lengthM <= 0 {
		return nil, fmt.Errorf("mobility: highway length must be positive, got %g", lengthM)
	}
	if count < 1 {
		return nil, fmt.Errorf("mobility: need at least one RSU, got %d", count)
	}
	if radiusM <= 0 {
		return nil, fmt.Errorf("mobility: coverage radius must be positive, got %g", radiusM)
	}
	h := &Highway{LengthM: lengthM}
	spacing := lengthM / float64(count)
	for i := 0; i < count; i++ {
		h.RSUs = append(h.RSUs, RSU{ID: i, PositionM: float64(i) * spacing, RadiusM: radiusM})
	}
	return h, nil
}

// FullCoverage reports whether every highway position is covered by at
// least one RSU.
func (h *Highway) FullCoverage() bool {
	spacing := h.LengthM / float64(len(h.RSUs))
	// Evenly spaced RSUs cover everything iff radius ≥ spacing/2.
	return h.RSUs[0].RadiusM >= spacing/2
}

// NearestRSU returns the RSU closest to the position (by circular
// distance) and whether that RSU actually covers it.
func (h *Highway) NearestRSU(posM float64) (RSU, bool) {
	best := h.RSUs[0]
	bestDist := circularDistance(best.PositionM, posM, h.LengthM)
	for _, r := range h.RSUs[1:] {
		if d := circularDistance(r.PositionM, posM, h.LengthM); d < bestDist {
			best, bestDist = r, d
		}
	}
	return best, bestDist <= best.RadiusM
}

// RSUDistance returns the circular distance between two RSUs on the
// highway — the d of the migration channel model.
func (h *Highway) RSUDistance(a, b int) float64 {
	return circularDistance(h.RSUs[a].PositionM, h.RSUs[b].PositionM, h.LengthM)
}

// RSUCount implements World.
func (h *Highway) RSUCount() int { return len(h.RSUs) }

// Place implements World: the vehicle spawns uniformly along the highway.
func (h *Highway) Place(v *Vehicle, rng *rand.Rand) {
	v.PositionM = rng.Float64() * h.LengthM
}

// Advance implements World.
func (h *Highway) Advance(v *Vehicle, dt float64) {
	v.Advance(dt, h.LengthM)
}

// ServingRSU implements World: the nearest live RSU by circular distance.
// With no outages it selects exactly NearestRSU's pick.
func (h *Highway) ServingRSU(v *Vehicle, down []bool) (int, bool) {
	best, bestDist := -1, math.Inf(1)
	for i, r := range h.RSUs {
		if len(down) > i && down[i] {
			continue
		}
		if d := circularDistance(r.PositionM, v.PositionM, h.LengthM); d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		// Every RSU is down: stay attached to the nearest one, uncovered.
		r, _ := h.NearestRSU(v.PositionM)
		return r.ID, false
	}
	return best, bestDist <= h.RSUs[best].RadiusM
}

// Vehicle is one vehicle (and its VMU) moving through a World.
type Vehicle struct {
	// ID is unique within a simulation.
	ID int
	// PositionM is the location along the highway in meters (highway
	// worlds only).
	PositionM float64
	// SpeedMps is the speed in meters per second (non-negative; roads
	// are one-way).
	SpeedMps float64
	// X and Y are the planar position in meters (grid worlds only).
	X, Y float64
	// DirX and DirY are the unit travel direction, one of (±1,0) or
	// (0,±1) (grid worlds only).
	DirX, DirY int

	// turn is the private turn-decision stream (grid worlds only),
	// created on the vehicle's first turn.
	turn *rand.Rand
}

// Advance moves the vehicle for dt seconds, wrapping at the highway
// length.
func (v *Vehicle) Advance(dt, highwayLenM float64) {
	if dt < 0 {
		panic(fmt.Sprintf("mobility: negative time step %g", dt))
	}
	v.PositionM = math.Mod(v.PositionM+v.SpeedMps*dt, highwayLenM)
	if v.PositionM < 0 {
		v.PositionM += highwayLenM
	}
}

// circularDistance returns the shortest distance between two positions on
// a circle of the given circumference.
func circularDistance(a, b, circumference float64) float64 {
	d := math.Abs(a - b)
	d = math.Mod(d, circumference)
	if d > circumference/2 {
		d = circumference - d
	}
	return d
}
