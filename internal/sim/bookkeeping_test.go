package sim

import "testing"

// The tests in this file pin the per-vehicle bookkeeping that handover
// collection, pricing, churn, and completion keep on vehState: the
// serving RSU and attached flag, the pending-queue slot, the departed
// mark, and the in-flight flag. Each drives one simulator phase directly
// on hand-staged serving RSUs.

// bookkeepingSim builds a highway simulator with churn switched on but
// idle (no arrivals, dwell times far past any test), pricing every round
// at cost so each follower demands bandwidth.
func bookkeepingSim(t *testing.T, vehicles int) *Simulator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Vehicles = vehicles
	cfg.Pricer = NewFixedPricer(cfg.Cost)
	cfg.Churn = ChurnConfig{ArrivalRatePerS: 1e-12, MeanDwellS: 1e12}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// observe stages one serving RSU per vehicle, in fleet order, and runs a
// handover collection over them.
func observe(s *Simulator, rsus ...int) {
	for i, id := range rsus {
		s.vehicles[i].stagedRSU = id
	}
	s.collectHandovers()
}

// requirePending fails unless the pending queue is exactly want, in order.
func requirePending(t *testing.T, s *Simulator, want ...pendingMigration) {
	t.Helper()
	if len(s.pending) != len(want) {
		t.Fatalf("pending has %d entries, want %d", len(s.pending), len(want))
	}
	for i, pm := range s.pending {
		if pm != want[i] {
			t.Fatalf("pending[%d] = vehicle %d %d→%d, want vehicle %d %d→%d", i,
				pm.st.v.ID, pm.fromRSU, pm.toRSU, want[i].st.v.ID, want[i].fromRSU, want[i].toRSU)
		}
	}
}

func TestBookkeepingFirstAttachPlacesTwin(t *testing.T) {
	s := bookkeepingSim(t, 1)
	st := s.vehicles[0]
	observe(s, 3)
	if !st.attached || st.serving != 3 {
		t.Fatalf("after first attach: attached=%v serving=%d, want true/3", st.attached, st.serving)
	}
	if got := s.cluster.Locate(st.v.ID); got != 3 {
		t.Fatalf("twin placed on RSU %d, want the serving RSU 3", got)
	}
	observe(s, 3)
	if s.report.Handovers != 0 {
		t.Fatalf("Handovers = %d after a first attach and a stay, want 0", s.report.Handovers)
	}
	requirePending(t, s)
}

func TestBookkeepingDeferredHandoverRetargets(t *testing.T) {
	s := bookkeepingSim(t, 2)
	a, b := s.vehicles[0], s.vehicles[1]
	observe(s, 1, 4)
	observe(s, 2, 5)
	requirePending(t, s, pendingMigration{a, 1, 2}, pendingMigration{b, 4, 5})

	// Hold the whole pool, admission slack included, so the round defers
	// both followers.
	if !s.alloc.TryAllocate(-1, s.alloc.Capacity()+1e-12) {
		t.Fatal("could not take the whole pool")
	}
	s.runPricingRound()
	if s.report.Deferred != 2 {
		t.Fatalf("Deferred = %d, want 2", s.report.Deferred)
	}

	// a hands over again while deferred: its one entry keeps the source
	// (the twin has not moved) and retargets to the new RSU.
	observe(s, 3, 5)
	requirePending(t, s, pendingMigration{a, 1, 3}, pendingMigration{b, 4, 5})
	if s.report.Handovers != 3 {
		t.Fatalf("Handovers = %d, want 3", s.report.Handovers)
	}
}

func TestBookkeepingDepartureLeavesPending(t *testing.T) {
	s := bookkeepingSim(t, 3)
	a, b := s.vehicles[0], s.vehicles[1]
	observe(s, 1, 4, 7)
	observe(s, 2, 5, 7)
	requirePending(t, s, pendingMigration{a, 1, 2}, pendingMigration{b, 4, 5})

	a.departAt = s.now
	s.processChurn()
	if s.report.Departures != 1 || len(s.vehicles) != 2 {
		t.Fatalf("Departures = %d with %d vehicles left, want 1 and 2", s.report.Departures, len(s.vehicles))
	}
	requirePending(t, s, pendingMigration{b, 4, 5})
}

func TestBookkeepingCompletionClearsInFlight(t *testing.T) {
	s := bookkeepingSim(t, 1)
	st := s.vehicles[0]
	observe(s, 1)
	observe(s, 2)
	s.runPricingRound()
	if !st.inFlight || s.completions.Len() != 1 {
		t.Fatalf("after the round: inFlight=%v with %d completions, want true and 1", st.inFlight, s.completions.Len())
	}
	requirePending(t, s)

	// Collection skips a migrating vehicle.
	observe(s, 3)
	if s.report.Handovers != 1 || st.serving != 2 {
		t.Fatalf("in flight: Handovers=%d serving=%d, want 1 and 2", s.report.Handovers, st.serving)
	}

	s.now = s.completions[0].at
	s.drainCompletions()
	if st.inFlight {
		t.Fatal("completed migration left the in-flight flag set")
	}
	if s.report.Completed != 1 || s.alloc.Available() != s.alloc.Capacity() {
		t.Fatalf("Completed=%d with %g of %g MHz free, want 1 and the whole pool (grant released)",
			s.report.Completed, s.alloc.Available(), s.alloc.Capacity())
	}
}
