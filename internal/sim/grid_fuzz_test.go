package sim

import (
	"reflect"
	"testing"
)

// FuzzGridSimSteps drives the simulator one Step at a time over
// randomized grids, fleets, churn rates, and an outage window, checking
// after every step that the fleet is conserved (every arrival and
// departure accounted for, no vehicle listed twice) and that the
// bandwidth pool never reports negative availability, and at the end
// that a second run from the same seed produces a DeepEqual report. The
// seed corpus doubles as a table test in ordinary runs.
func FuzzGridSimSteps(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(12), int64(1), uint8(0), uint8(20))
	f.Add(uint8(2), uint8(2), uint8(1), int64(7), uint8(3), uint8(40))
	f.Add(uint8(6), uint8(5), uint8(30), int64(42), uint8(10), uint8(25))
	f.Add(uint8(4), uint8(4), uint8(8), int64(99), uint8(1), uint8(30))
	f.Fuzz(func(t *testing.T, rows, cols, vehicles uint8, seed int64, churn, steps uint8) {
		cfg := DefaultConfig()
		cfg.Mobility = MobilityGrid
		cfg.RSUCount = 0
		cfg.Grid = GridConfig{
			Rows:     2 + int(rows)%5,
			Cols:     2 + int(cols)%5,
			SpacingM: 300,
		}
		cfg.RSURadiusM = 250
		cfg.Vehicles = 1 + int(vehicles)%30
		cfg.TimeStepS = 0.5
		cfg.DurationS = 1 // unused: the loop below drives the steps
		cfg.Seed = seed
		if churn%4 != 0 {
			cfg.Churn = ChurnConfig{
				ArrivalRatePerS: float64(churn%4) * 0.1,
				MeanDwellS:      30,
				MaxVehicles:     40,
			}
		}
		cfg.Outages = []OutageWindow{{RSU: 0, StartS: 2, EndS: 8}}
		nSteps := 1 + int(steps)%40

		run := func() Report {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < nSteps; i++ {
				s.Step()
				if want := cfg.Vehicles + s.report.Arrivals - s.report.Departures; len(s.vehicles) != want {
					t.Fatalf("step %d: fleet holds %d vehicles, want %d", i+1, len(s.vehicles), want)
				}
				seen := make(map[*vehState]bool, len(s.vehicles))
				for _, st := range s.vehicles {
					if seen[st] {
						t.Fatalf("step %d: vehicle %d listed twice", i+1, st.v.ID)
					}
					seen[st] = true
				}
				if avail := s.alloc.Available(); !(avail >= 0) {
					t.Fatalf("step %d: pool reports %g MHz available", i+1, avail)
				}
			}
			return s.Finish()
		}
		ref := run()
		if rep := run(); !reflect.DeepEqual(ref, rep) {
			t.Fatalf("same-seed runs diverged after %d steps:\nfirst:  %+v\nsecond: %+v", nSteps, ref, rep)
		}
	})
}
