// Package rsu models the edge servers inside RoadSide Units: multi-
// dimensional resource capacities (CPU, GPU, memory, storage) and
// Vehicular Twin placement with admission control.
//
// The placement cluster gives the simulator a destination-side admission
// check: a migration can only complete when the destination RSU has room
// to host the twin.
package rsu

import (
	"fmt"
	"sort"
)

// Resources is a multi-dimensional resource vector.
type Resources struct {
	// CPU and GPU are in abstract compute units.
	CPU, GPU float64
	// MemoryGB and StorageGB are in gigabytes.
	MemoryGB, StorageGB float64
}

// Add returns r + other.
func (r Resources) Add(other Resources) Resources {
	return Resources{
		CPU:       r.CPU + other.CPU,
		GPU:       r.GPU + other.GPU,
		MemoryGB:  r.MemoryGB + other.MemoryGB,
		StorageGB: r.StorageGB + other.StorageGB,
	}
}

// Sub returns r - other.
func (r Resources) Sub(other Resources) Resources {
	return Resources{
		CPU:       r.CPU - other.CPU,
		GPU:       r.GPU - other.GPU,
		MemoryGB:  r.MemoryGB - other.MemoryGB,
		StorageGB: r.StorageGB - other.StorageGB,
	}
}

// FitsIn reports whether r fits within capacity in every dimension.
func (r Resources) FitsIn(capacity Resources) bool {
	return r.CPU <= capacity.CPU &&
		r.GPU <= capacity.GPU &&
		r.MemoryGB <= capacity.MemoryGB &&
		r.StorageGB <= capacity.StorageGB
}

// NonNegative reports whether every dimension is >= 0.
func (r Resources) NonNegative() bool {
	return r.CPU >= 0 && r.GPU >= 0 && r.MemoryGB >= 0 && r.StorageGB >= 0
}

// Validate reports whether the vector is a valid requirement/capacity.
func (r Resources) Validate() error {
	if !r.NonNegative() {
		return fmt.Errorf("rsu: resources must be non-negative, got %+v", r)
	}
	return nil
}

// Server is one RSU edge server hosting Vehicular Twins.
type Server struct {
	// ID is unique within a cluster.
	ID int
	// Capacity is the server's total resources.
	Capacity Resources

	used  Resources
	twins map[int]Resources
}

// NewServer builds an empty server.
func NewServer(id int, capacity Resources) (*Server, error) {
	if err := capacity.Validate(); err != nil {
		return nil, err
	}
	return &Server{ID: id, Capacity: capacity, twins: make(map[int]Resources)}, nil
}

// Free returns the remaining headroom.
func (s *Server) Free() Resources { return s.Capacity.Sub(s.used) }

// TryDeploy admits a twin with the given requirement and reports whether
// it did. It refuses an invalid requirement, a twin the server already
// hosts, and a requirement that does not fit the free resources, and a
// refusal leaves the server unchanged. It returns no error: an outage at
// fleet scale makes thousands of vehicles re-attach per tick, and
// building a rejection error for each dominated the allocations.
func (s *Server) TryDeploy(twinID int, req Resources) bool {
	if req.Validate() != nil {
		return false
	}
	if _, ok := s.twins[twinID]; ok {
		return false
	}
	if !req.FitsIn(s.Free()) {
		return false
	}
	s.twins[twinID] = req
	s.used = s.used.Add(req)
	return true
}

// Remove evicts a twin and returns its resources to the pool.
func (s *Server) Remove(twinID int) error {
	req, ok := s.twins[twinID]
	if !ok {
		return fmt.Errorf("rsu: server %d does not host twin %d", s.ID, twinID)
	}
	delete(s.twins, twinID)
	s.used = s.used.Sub(req)
	return nil
}

// CPUUtilization returns used/capacity CPU in [0, 1] (0 for zero
// capacity).
func (s *Server) CPUUtilization() float64 {
	if s.Capacity.CPU == 0 {
		return 0
	}
	return s.used.CPU / s.Capacity.CPU
}

// PlacementStrategy selects a server for a new twin.
type PlacementStrategy int

// Supported strategies.
const (
	// PlaceFirstFit picks the lowest-ID server with room.
	PlaceFirstFit PlacementStrategy = iota + 1
	// PlaceLeastLoaded picks the server with the lowest CPU utilization
	// that has room.
	PlaceLeastLoaded
)

// Cluster is a set of RSU edge servers with a placement policy.
type Cluster struct {
	servers  []*Server
	strategy PlacementStrategy
	// location maps twin id -> server id.
	location map[int]int
}

// NewCluster builds a cluster over the servers.
func NewCluster(servers []*Server, strategy PlacementStrategy) (*Cluster, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("rsu: cluster needs at least one server")
	}
	switch strategy {
	case PlaceFirstFit, PlaceLeastLoaded:
	default:
		return nil, fmt.Errorf("rsu: unknown placement strategy %d", int(strategy))
	}
	seen := make(map[int]bool, len(servers))
	for _, s := range servers {
		if seen[s.ID] {
			return nil, fmt.Errorf("rsu: duplicate server id %d", s.ID)
		}
		seen[s.ID] = true
	}
	sorted := append([]*Server(nil), servers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	return &Cluster{servers: sorted, strategy: strategy, location: make(map[int]int)}, nil
}

// Locate returns the server hosting the twin, or -1.
func (c *Cluster) Locate(twinID int) int {
	if id, ok := c.location[twinID]; ok {
		return id
	}
	return -1
}

// TryPlace deploys a new twin on the server the cluster strategy picks
// and reports that server's id and true, or -1 and false when the twin is
// already placed or no server can fit it.
func (c *Cluster) TryPlace(twinID int, req Resources) (int, bool) {
	if _, ok := c.location[twinID]; ok {
		return -1, false
	}
	target := c.pick(req)
	if target == nil || !target.TryDeploy(twinID, req) {
		return -1, false
	}
	c.location[twinID] = target.ID
	return target.ID, true
}

// pick applies the placement strategy.
func (c *Cluster) pick(req Resources) *Server {
	var best *Server
	for _, s := range c.servers {
		if !req.FitsIn(s.Free()) {
			continue
		}
		switch c.strategy {
		case PlaceFirstFit:
			return s
		case PlaceLeastLoaded:
			if best == nil || s.CPUUtilization() < best.CPUUtilization() {
				best = s
			}
		}
	}
	return best
}

// TryPlaceOn deploys a new twin on a specific server (e.g. the RSU
// currently serving the vehicle), bypassing the placement strategy. It
// reports false, changing nothing, when the twin is already placed, the
// server is unknown, or TryDeploy refuses the twin there.
func (c *Cluster) TryPlaceOn(twinID, serverID int, req Resources) bool {
	if _, ok := c.location[twinID]; ok {
		return false
	}
	target := c.serverByID(serverID)
	if target == nil || !target.TryDeploy(twinID, req) {
		return false
	}
	c.location[twinID] = serverID
	return true
}

// TryMigrateTwin moves a placed twin to a specific destination server,
// deploying at the destination before releasing the source (the pre-copy
// discipline: both copies exist during migration), and reports whether
// the twin moved. It refuses, changing nothing, when the twin is not
// placed, is already on the destination, or the destination is unknown
// or lacks headroom. The simulator's migration-completion path counts a
// failure and nothing more, so it builds no error.
func (c *Cluster) TryMigrateTwin(twinID, destServerID int) bool {
	srcID, ok := c.location[twinID]
	if !ok || srcID == destServerID {
		return false
	}
	src := c.serverByID(srcID)
	dst := c.serverByID(destServerID)
	if dst == nil || !dst.TryDeploy(twinID, src.twins[twinID]) {
		return false
	}
	if src.Remove(twinID) != nil {
		// Roll back the destination copy to keep accounting consistent.
		_ = dst.Remove(twinID)
		return false
	}
	c.location[twinID] = destServerID
	return true
}

// Evict removes a twin from the cluster entirely.
func (c *Cluster) Evict(twinID int) error {
	srcID, ok := c.location[twinID]
	if !ok {
		return fmt.Errorf("rsu: twin %d is not placed", twinID)
	}
	if err := c.serverByID(srcID).Remove(twinID); err != nil {
		return err
	}
	delete(c.location, twinID)
	return nil
}

// serverByID looks up a server (nil when absent).
func (c *Cluster) serverByID(id int) *Server {
	for _, s := range c.servers {
		if s.ID == id {
			return s
		}
	}
	return nil
}
