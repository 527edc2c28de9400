package channel

import (
	"fmt"
	"sort"
)

// Allocation records one OFDMA bandwidth grant.
type Allocation struct {
	// Owner identifies the grantee (e.g. a VMU id).
	Owner int
	// Bandwidth is the granted bandwidth in MHz.
	Bandwidth float64
}

// OFDMAAllocator hands out orthogonal slices of a shared bandwidth pool.
// The paper assumes OFDMA keeps all migration channels between the source
// and destination RSUs orthogonal; this allocator enforces the capacity
// constraint Σ b_n ≤ Bmax that the MSP's Problem 2 imposes.
//
// The allocator is not safe for concurrent use; the discrete-event
// simulator serializes access.
type OFDMAAllocator struct {
	capacity float64
	grants   map[int]float64
	used     float64
}

// NewOFDMAAllocator returns an allocator with the given total capacity in
// MHz (the MSP's Bmax).
func NewOFDMAAllocator(capacity float64) *OFDMAAllocator {
	if capacity <= 0 {
		panic(fmt.Sprintf("channel: OFDMA capacity must be positive, got %g", capacity))
	}
	return &OFDMAAllocator{capacity: capacity, grants: make(map[int]float64)}
}

// Capacity returns the total pool size in MHz.
func (a *OFDMAAllocator) Capacity() float64 { return a.capacity }

// Available returns the unallocated bandwidth in MHz. The Allocate slack
// admits rounding overshoot of at most 1e-12 on a full pool, so the
// difference is clamped at zero rather than exposing a negative rounding
// residue to callers that treat negative availability as corruption.
func (a *OFDMAAllocator) Available() float64 {
	if avail := a.capacity - a.used; avail > 0 {
		return avail
	}
	return 0
}

// Used returns the currently allocated bandwidth in MHz.
func (a *OFDMAAllocator) Used() float64 { return a.used }

// Allocate grants bw MHz to owner. It fails when the owner already holds a
// grant or the pool has insufficient headroom.
func (a *OFDMAAllocator) Allocate(owner int, bw float64) error {
	if a.TryAllocate(owner, bw) {
		return nil
	}
	if bw <= 0 {
		return fmt.Errorf("channel: allocation for owner %d must be positive, got %g MHz", owner, bw)
	}
	if _, exists := a.grants[owner]; exists {
		return fmt.Errorf("channel: owner %d already holds a grant", owner)
	}
	return fmt.Errorf("channel: insufficient capacity: want %g MHz, available %g MHz", bw, a.Available())
}

// TryAllocate is Allocate without the error construction, under exactly
// the same admission checks. It exists for the simulator's pricing loop:
// a fleet-scale round can defer thousands of grants per tick, and
// building a rejection error for each dominated the round's allocations.
// The headroom check runs before the grants lookup: every rejection
// returns false with no side effect, so the order cannot change an
// outcome, and once the pool is exhausted each deferral costs no map
// probe.
func (a *OFDMAAllocator) TryAllocate(owner int, bw float64) bool {
	if bw <= 0 {
		return false
	}
	const slack = 1e-12 // absorb float rounding in Σb ≤ Bmax checks
	if a.used+bw > a.capacity+slack {
		return false
	}
	if _, exists := a.grants[owner]; exists {
		return false
	}
	a.grants[owner] = bw
	a.used += bw
	return true
}

// Release returns owner's grant to the pool.
func (a *OFDMAAllocator) Release(owner int) error {
	bw, ok := a.grants[owner]
	if !ok {
		return fmt.Errorf("channel: owner %d holds no grant", owner)
	}
	delete(a.grants, owner)
	a.used -= bw
	if a.used < 0 {
		a.used = 0
	}
	return nil
}

// Grant returns the bandwidth currently held by owner (0 if none).
func (a *OFDMAAllocator) Grant(owner int) float64 { return a.grants[owner] }

// Grants returns all current allocations sorted by owner id.
func (a *OFDMAAllocator) Grants() []Allocation {
	out := make([]Allocation, 0, len(a.grants))
	for owner, bw := range a.grants {
		out = append(out, Allocation{Owner: owner, Bandwidth: bw})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}

// ScaleToFit proportionally shrinks the requested demands so that their sum
// fits within capacity, mirroring how a bandwidth-constrained MSP would
// admit an over-subscribed round. It returns the scaled demands (a new
// slice) and the applied scale factor (1 when no scaling was needed).
func (a *OFDMAAllocator) ScaleToFit(demands []float64) ([]float64, float64) {
	out := make([]float64, len(demands))
	copy(out, demands)
	return out, ScaleDemandsInPlace(out, a.capacity)
}

// ScaleDemandsInPlace is ScaleToFit without the allocator and the result
// slice: it shrinks demands in place so their sum fits within capacity
// and returns the applied scale factor (1 when none was needed). Same
// arithmetic as ScaleToFit — d*scale per element — so the two are
// bit-identical.
func ScaleDemandsInPlace(demands []float64, capacity float64) float64 {
	if capacity <= 0 {
		panic(fmt.Sprintf("channel: OFDMA capacity must be positive, got %g", capacity))
	}
	var total float64
	for _, d := range demands {
		if d < 0 {
			panic(fmt.Sprintf("channel: negative demand %g", d))
		}
		total += d
	}
	if total <= capacity || total == 0 {
		return 1
	}
	scale := capacity / total
	for i, d := range demands {
		demands[i] = d * scale
	}
	return scale
}
