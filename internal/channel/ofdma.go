package channel

import "fmt"

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

// Available returns the unallocated bandwidth in MHz. The TryAllocate
// slack admits rounding overshoot of at most 1e-12 on a full pool, so the
// difference is clamped at zero rather than exposing a negative rounding
// residue to callers that treat negative availability as corruption.
func (a *OFDMAAllocator) Available() float64 {
	if avail := a.capacity - a.used; avail > 0 {
		return avail
	}
	return 0
}

// TryAllocate grants bw MHz to owner and reports whether it did. It
// refuses a non-positive bandwidth, an owner that already holds a grant,
// and a grant the pool has no headroom for, and a refusal changes
// nothing. It returns no error: a fleet-scale pricing round can defer
// thousands of grants per tick, and building a rejection error for each
// dominated the round's allocations. The headroom check runs before the
// grants lookup: every rejection returns false with no side effect, so
// the order cannot change an outcome, and once the pool is exhausted
// each deferral costs no map probe.
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

// ScaleDemandsInPlace proportionally shrinks the requested demands in
// place so that their sum fits within capacity, mirroring how a
// bandwidth-constrained MSP would admit an over-subscribed round, and
// returns the applied scale factor (1 when no scaling was needed). Each
// demand becomes d*scale.
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
