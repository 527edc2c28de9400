// Package rsu models the edge servers inside RoadSide Units: multi-
// dimensional resource capacities (CPU, GPU, memory, storage), Vehicular
// Twin placement with admission control, and the edge-assisted remote
// rendering load of Section II (VT update/rendering tasks offloaded to
// the serving RSU).
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

// Used returns the currently allocated resources.
func (s *Server) Used() Resources { return s.used }

// Free returns the remaining headroom.
func (s *Server) Free() Resources { return s.Capacity.Sub(s.used) }

// Hosts reports whether the server hosts the twin.
func (s *Server) Hosts(twinID int) bool {
	_, ok := s.twins[twinID]
	return ok
}

// TwinCount returns the number of hosted twins.
func (s *Server) TwinCount() int { return len(s.twins) }

// Deploy admits a twin with the given requirement.
func (s *Server) Deploy(twinID int, req Resources) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if _, ok := s.twins[twinID]; ok {
		return fmt.Errorf("rsu: server %d already hosts twin %d", s.ID, twinID)
	}
	if !req.FitsIn(s.Free()) {
		return fmt.Errorf("rsu: server %d cannot fit twin %d: need %+v, free %+v", s.ID, twinID, req, s.Free())
	}
	s.twins[twinID] = req
	s.used = s.used.Add(req)
	return nil
}

// TryDeploy is Deploy without the error construction, under exactly the
// same admission checks. It exists for the simulator's attach path: an
// outage at fleet scale makes thousands of vehicles re-attach per tick,
// and building a rejection error for each dominated the allocations.
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

// RenderingLatency models the edge-assisted remote-rendering delay of the
// hosted twins as an M/M/1 service: each hosted twin submits update tasks
// at taskRate (tasks/s) and one CPU unit serves serviceRatePerCPU
// (tasks/s). The expected sojourn time is 1/(μ−λ). It returns an error
// when the server is saturated (λ ≥ μ).
func (s *Server) RenderingLatency(taskRate, serviceRatePerCPU float64) (float64, error) {
	if taskRate <= 0 || serviceRatePerCPU <= 0 {
		return 0, fmt.Errorf("rsu: rates must be positive, got task=%g service=%g", taskRate, serviceRatePerCPU)
	}
	lambda := taskRate * float64(len(s.twins))
	mu := serviceRatePerCPU * s.Capacity.CPU
	if lambda >= mu {
		return 0, fmt.Errorf("rsu: server %d saturated: offered %g tasks/s, capacity %g tasks/s", s.ID, lambda, mu)
	}
	if lambda == 0 {
		return 1 / mu, nil
	}
	return 1 / (mu - lambda), nil
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

// Servers returns the cluster's servers sorted by ID.
func (c *Cluster) Servers() []*Server { return c.servers }

// Locate returns the server hosting the twin, or -1.
func (c *Cluster) Locate(twinID int) int {
	if id, ok := c.location[twinID]; ok {
		return id
	}
	return -1
}

// Place deploys a new twin per the cluster strategy and returns the
// chosen server id.
func (c *Cluster) Place(twinID int, req Resources) (int, error) {
	if _, ok := c.location[twinID]; ok {
		return -1, fmt.Errorf("rsu: twin %d is already placed", twinID)
	}
	target := c.pick(req)
	if target == nil {
		return -1, fmt.Errorf("rsu: no server can fit twin %d (%+v)", twinID, req)
	}
	if err := target.Deploy(twinID, req); err != nil {
		return -1, err
	}
	c.location[twinID] = target.ID
	return target.ID, nil
}

// TryPlace is Place without the error construction: it deploys per the
// cluster strategy under exactly Place's admission checks and reports
// the chosen server and whether placement succeeded.
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

// PlaceOn deploys a new twin on a specific server (e.g. the RSU currently
// serving the vehicle), bypassing the placement strategy.
func (c *Cluster) PlaceOn(twinID, serverID int, req Resources) error {
	if _, ok := c.location[twinID]; ok {
		return fmt.Errorf("rsu: twin %d is already placed", twinID)
	}
	target := c.serverByID(serverID)
	if target == nil {
		return fmt.Errorf("rsu: unknown server %d", serverID)
	}
	if err := target.Deploy(twinID, req); err != nil {
		return err
	}
	c.location[twinID] = serverID
	return nil
}

// TryPlaceOn is PlaceOn without the error construction, under exactly
// the same admission checks.
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

// MigrateTwin moves a placed twin to a specific destination server,
// deploying at the destination before releasing the source (the pre-copy
// discipline: both copies exist during migration). It fails when the
// destination lacks headroom.
func (c *Cluster) MigrateTwin(twinID, destServerID int) error {
	srcID, ok := c.location[twinID]
	if !ok {
		return fmt.Errorf("rsu: twin %d is not placed", twinID)
	}
	if srcID == destServerID {
		return fmt.Errorf("rsu: twin %d is already on server %d", twinID, destServerID)
	}
	src := c.serverByID(srcID)
	dst := c.serverByID(destServerID)
	if dst == nil {
		return fmt.Errorf("rsu: unknown destination server %d", destServerID)
	}
	req := src.twins[twinID]
	if err := dst.Deploy(twinID, req); err != nil {
		return fmt.Errorf("rsu: migrating twin %d: %w", twinID, err)
	}
	if err := src.Remove(twinID); err != nil {
		// Roll back the destination copy to keep accounting consistent.
		_ = dst.Remove(twinID)
		return fmt.Errorf("rsu: migrating twin %d: %w", twinID, err)
	}
	c.location[twinID] = destServerID
	return nil
}

// TryMigrateTwin is MigrateTwin without the error construction, under
// exactly the same checks: it reports whether the twin moved. The
// simulator's migration-completion path counts a failure and nothing
// more, so formatting Deploy's rejection for every full destination
// would be pure garbage.
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

// TotalTwins returns the number of placed twins.
func (c *Cluster) TotalTwins() int { return len(c.location) }
