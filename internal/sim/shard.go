package sim

import (
	"fmt"
	"sync"
)

// This file implements region sharding: the RSU lattice is split into
// contiguous index ranges ("regions"), each vehicle resides in the region
// of its serving RSU, and the per-tick vehicle phase steps every region's
// residents on its own goroutine. Vehicles whose staged serving RSU left
// their region are queued on per-shard outboxes and re-homed at the tick
// boundary in fixed shard-index order, so shard membership — like every
// other piece of simulator state — evolves identically for every region
// count. The phase itself is pure per-vehicle work (see stepVehicle), so
// any Regions × GOMAXPROCS combination is bit-identical to the serial
// simulator: determinism contract rule 7.

// simShard is one region's stepping state. residents holds the vehicles
// homed in the region in arrival-within-region order (the order is
// internal only — the serial merge in collectHandovers walks the global
// fleet slice, never the shards). outbox collects the tick's outbound
// handoffs in resident order, and err captures the first per-vehicle
// failure so the stepping goroutine can re-panic it deterministically.
type simShard struct {
	residents []*vehState
	outbox    []*vehState
	err       error
}

// regionOf maps an RSU id to its region: contiguous blocks of the RSU
// index space, balanced to within one RSU. The -1 "unserved" sentinel
// homes into region 0. For 0 ≤ id < RSUCount the result is provably in
// [0, Regions): id·R/M < R because id < M.
func (s *Simulator) regionOf(rsuID int) int {
	if rsuID < 0 {
		return 0
	}
	return rsuID * len(s.shards) / s.world.RSUCount()
}

// stepShards runs the sharded vehicle phase: one goroutine per non-empty
// region, each stepping its residents in resident order. A vehicle whose
// new staged RSU maps outside its region is queued on the shard's outbox;
// in-flight vehicles keep their pre-migration home until the completed
// migration's serving RSU is staged. Errors are captured per shard and
// re-raised here in shard-index order, so a failing run panics with the
// same message regardless of goroutine scheduling.
func (s *Simulator) stepShards() {
	night := s.night()
	dt := s.moveDt(night)
	var wg sync.WaitGroup
	for i := range s.shards {
		sh := &s.shards[i]
		sh.outbox = sh.outbox[:0]
		sh.err = nil
		if len(sh.residents) == 0 {
			continue
		}
		wg.Add(1)
		go func(region int, sh *simShard) {
			defer wg.Done()
			for _, st := range sh.residents {
				if err := s.stepVehicle(st, dt, night); err != nil {
					if sh.err == nil {
						sh.err = err
					}
					continue
				}
				if st.inFlight {
					continue // staged RSU frozen while the twin moves
				}
				if s.regionOf(st.stagedRSU) != region {
					sh.outbox = append(sh.outbox, st)
				}
			}
		}(i, sh)
	}
	wg.Wait()
	for i := range s.shards {
		if err := s.shards[i].err; err != nil {
			panic(err.Error())
		}
	}
}

// applyHandoffs drains every shard's outbox in shard-index order (and
// each outbox in resident order), moving each vehicle to the region of
// its staged serving RSU. The fixed drain order makes resident-list
// contents a pure function of simulation history, independent of how the
// shard goroutines were scheduled.
func (s *Simulator) applyHandoffs() {
	for i := range s.shards {
		for _, st := range s.shards[i].outbox {
			s.removeResident(st)
			st.region = s.regionOf(st.stagedRSU)
			s.shards[st.region].residents = append(s.shards[st.region].residents, st)
		}
		s.shards[i].outbox = s.shards[i].outbox[:0]
	}
}

// removeResident detaches a vehicle from its current region's resident
// list, preserving the order of the remaining residents. A vehicle absent
// from its tagged region means conservation is already broken, which the
// simulator must not paper over.
func (s *Simulator) removeResident(st *vehState) {
	residents := s.shards[st.region].residents
	for i, r := range residents {
		if r == st {
			s.shards[st.region].residents = append(residents[:i], residents[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("sim: vehicle %d not resident in its region %d", st.v.ID, st.region))
}

// checkShardInvariants verifies migration conservation across the shard
// partition: every active vehicle resides in exactly one region, its
// region tag matches the list holding it, and no retired vehicle
// lingers. The fuzz and race layers call it between steps.
func (s *Simulator) checkShardInvariants() error {
	if s.shards == nil {
		return nil
	}
	seen := make(map[*vehState]int, len(s.vehicles))
	total := 0
	for region := range s.shards {
		for _, st := range s.shards[region].residents {
			if prev, dup := seen[st]; dup {
				return fmt.Errorf("vehicle %d resident in regions %d and %d", st.v.ID, prev, region)
			}
			seen[st] = region
			if st.region != region {
				return fmt.Errorf("vehicle %d in region %d list but tagged region %d", st.v.ID, region, st.region)
			}
			total++
		}
	}
	if total != len(s.vehicles) {
		return fmt.Errorf("shards hold %d vehicles, fleet has %d", total, len(s.vehicles))
	}
	for _, st := range s.vehicles {
		if _, ok := seen[st]; !ok {
			return fmt.Errorf("vehicle %d active but resident in no region", st.v.ID)
		}
	}
	return nil
}
