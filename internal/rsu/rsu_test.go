package rsu

import (
	"reflect"
	"testing"
	"testing/quick"
)

func res(cpu, gpu, mem, sto float64) Resources {
	return Resources{CPU: cpu, GPU: gpu, MemoryGB: mem, StorageGB: sto}
}

func server(t *testing.T, id int, capacity Resources) *Server {
	t.Helper()
	s, err := NewServer(id, capacity)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s
}

// hosts reports whether s hosts the twin.
func hosts(s *Server, twinID int) bool {
	_, ok := s.twins[twinID]
	return ok
}

func TestResourcesArithmetic(t *testing.T) {
	a := res(1, 2, 3, 4)
	b := res(10, 20, 30, 40)
	sum := a.Add(b)
	if sum != res(11, 22, 33, 44) {
		t.Errorf("Add = %+v", sum)
	}
	if diff := b.Sub(a); diff != res(9, 18, 27, 36) {
		t.Errorf("Sub = %+v", diff)
	}
}

func TestFitsIn(t *testing.T) {
	capa := res(4, 2, 16, 100)
	tests := []struct {
		name string
		req  Resources
		want bool
	}{
		{"fits", res(1, 1, 8, 50), true},
		{"exact", capa, true},
		{"cpu over", res(5, 0, 0, 0), false},
		{"gpu over", res(0, 3, 0, 0), false},
		{"memory over", res(0, 0, 17, 0), false},
		{"storage over", res(0, 0, 0, 101), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.req.FitsIn(capa); got != tt.want {
				t.Errorf("FitsIn = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestResourceValidation(t *testing.T) {
	if err := res(-1, 0, 0, 0).Validate(); err == nil {
		t.Error("negative CPU must fail validation")
	}
	if _, err := NewServer(0, res(-1, 0, 0, 0)); err == nil {
		t.Error("negative capacity must fail")
	}
}

func TestDeployRemoveAccounting(t *testing.T) {
	s := server(t, 0, res(4, 2, 16, 100))
	if !s.TryDeploy(1, res(2, 1, 8, 40)) {
		t.Fatal("TryDeploy refused a twin that fits")
	}
	if !hosts(s, 1) || len(s.twins) != 1 {
		t.Error("twin not hosted after TryDeploy")
	}
	if got := s.Free(); got != res(2, 1, 8, 60) {
		t.Errorf("Free = %+v", got)
	}
	if err := s.Remove(1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if got := s.used; got != res(0, 0, 0, 0) {
		t.Errorf("used after Remove = %+v", got)
	}
}

// TestDeployRejections checks that every refused TryDeploy leaves the
// server as it was.
func TestDeployRejections(t *testing.T) {
	s := server(t, 0, res(4, 2, 16, 100))
	if !s.TryDeploy(1, res(3, 1, 8, 40)) {
		t.Fatal("TryDeploy refused a twin that fits")
	}
	for _, tc := range []struct {
		name string
		twin int
		req  Resources
	}{
		{"duplicate deploy", 1, res(1, 0, 0, 0)},
		{"over-capacity deploy", 2, res(2, 0, 0, 0)},
		{"negative requirement", 3, res(-1, 0, 0, 0)},
	} {
		if s.TryDeploy(tc.twin, tc.req) {
			t.Errorf("%s must fail", tc.name)
		}
		if len(s.twins) != 1 || s.used != res(3, 1, 8, 40) {
			t.Errorf("%s changed the server: twins %v, used %+v", tc.name, s.twins, s.used)
		}
	}
	if err := s.Remove(99); err == nil {
		t.Error("removing unknown twin must fail")
	}
}

func TestCPUUtilization(t *testing.T) {
	s := server(t, 0, res(4, 0, 16, 100))
	if got := s.CPUUtilization(); got != 0 {
		t.Errorf("empty utilization = %v", got)
	}
	if !s.TryDeploy(1, res(1, 0, 1, 1)) {
		t.Fatal("TryDeploy refused a twin that fits")
	}
	if got := s.CPUUtilization(); got != 0.25 {
		t.Errorf("utilization = %v, want 0.25", got)
	}
}

func TestClusterValidation(t *testing.T) {
	s0 := server(t, 0, res(4, 2, 16, 100))
	if _, err := NewCluster(nil, PlaceFirstFit); err == nil {
		t.Error("empty cluster must fail")
	}
	if _, err := NewCluster([]*Server{s0}, PlacementStrategy(0)); err == nil {
		t.Error("unknown strategy must fail")
	}
	dup := server(t, 0, res(1, 1, 1, 1))
	if _, err := NewCluster([]*Server{s0, dup}, PlaceFirstFit); err == nil {
		t.Error("duplicate ids must fail")
	}
}

func TestFirstFitPlacement(t *testing.T) {
	a := server(t, 0, res(2, 2, 16, 100))
	b := server(t, 1, res(8, 8, 64, 400))
	c, err := NewCluster([]*Server{a, b}, PlaceFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := c.TryPlace(1, res(1, 1, 1, 1)); !ok || id != 0 {
		t.Errorf("first fit placed on %d (ok %v), want 0", id, ok)
	}
	// Too big for server 0 -> goes to 1.
	if id, ok := c.TryPlace(2, res(4, 4, 4, 4)); !ok || id != 1 {
		t.Errorf("oversize twin placed on %d (ok %v), want 1", id, ok)
	}
}

func TestLeastLoadedPlacement(t *testing.T) {
	a := server(t, 0, res(4, 4, 64, 400))
	b := server(t, 1, res(4, 4, 64, 400))
	c, err := NewCluster([]*Server{a, b}, PlaceLeastLoaded)
	if err != nil {
		t.Fatal(err)
	}
	// Twins must alternate between the equally sized servers.
	for i := 0; i < 4; i++ {
		if _, ok := c.TryPlace(i, res(1, 1, 1, 1)); !ok {
			t.Fatalf("TryPlace(%d) failed", i)
		}
	}
	if len(a.twins) != 2 || len(b.twins) != 2 {
		t.Errorf("least-loaded split = %d/%d, want 2/2", len(a.twins), len(b.twins))
	}
}

func TestPlacementExhaustion(t *testing.T) {
	a := server(t, 0, res(1, 1, 1, 1))
	c, err := NewCluster([]*Server{a}, PlaceFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.TryPlace(1, res(1, 1, 1, 1)); !ok {
		t.Fatal("TryPlace refused a twin that fits")
	}
	if id, ok := c.TryPlace(2, res(1, 1, 1, 1)); ok || id != -1 {
		t.Errorf("exhausted cluster placed on %d (ok %v), want -1", id, ok)
	}
	if id, ok := c.TryPlace(1, res(0.1, 0.1, 0.1, 0.1)); ok || id != -1 {
		t.Errorf("re-placing a placed twin gave %d (ok %v), want -1", id, ok)
	}
	if len(c.location) != 1 || len(a.twins) != 1 {
		t.Errorf("refused placements changed the cluster: %v", c.location)
	}
}

func TestMigrateTwin(t *testing.T) {
	a := server(t, 0, res(4, 4, 64, 400))
	b := server(t, 1, res(4, 4, 64, 400))
	c, err := NewCluster([]*Server{a, b}, PlaceFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.TryPlace(7, res(2, 2, 8, 40)); !ok {
		t.Fatal("TryPlace refused a twin that fits")
	}
	if !c.TryMigrateTwin(7, 1) {
		t.Fatal("TryMigrateTwin failed")
	}
	if c.Locate(7) != 1 || !hosts(b, 7) || hosts(a, 7) {
		t.Error("twin not moved correctly")
	}
	if got := a.used; got != res(0, 0, 0, 0) {
		t.Errorf("source not released: %+v", got)
	}
	if got := b.used; got != res(2, 2, 8, 40) {
		t.Errorf("destination holds %+v, want the twin's requirement", got)
	}
}

// TestMigrateTwinErrors checks every refusal of TryMigrateTwin and that
// each leaves the placements and every server's accounting as they were.
func TestMigrateTwinErrors(t *testing.T) {
	a := server(t, 0, res(4, 4, 64, 400))
	b := server(t, 1, res(1, 1, 1, 1))
	d := server(t, 2, res(4, 4, 64, 400))
	c, err := NewCluster([]*Server{a, b, d}, PlaceFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if !c.TryPlaceOn(7, 0, res(2, 2, 8, 40)) || !c.TryPlaceOn(8, 2, res(1, 1, 4, 10)) {
		t.Fatal("TryPlaceOn refused a twin that fits")
	}
	for _, tc := range []struct {
		name       string
		twin, dest int
	}{
		{"unplaced twin", 9, 2},
		{"self-migration", 7, 0},
		{"unknown destination", 7, 99},
		{"over-capacity destination", 7, 1},
	} {
		if c.TryMigrateTwin(tc.twin, tc.dest) {
			t.Errorf("%s must fail", tc.name)
		}
		if !reflect.DeepEqual(c.location, map[int]int{7: 0, 8: 2}) {
			t.Errorf("%s changed the placements: %v", tc.name, c.location)
		}
		for _, s := range c.servers {
			var sum Resources
			for _, req := range s.twins {
				sum = sum.Add(req)
			}
			if sum != s.used {
				t.Errorf("%s: server %d uses %+v but hosts %v", tc.name, s.ID, s.used, s.twins)
			}
		}
	}
	if !hosts(a, 7) || hosts(b, 7) || hosts(d, 7) {
		t.Error("failed migrations moved the twin")
	}
}

func TestEvict(t *testing.T) {
	a := server(t, 0, res(4, 4, 64, 400))
	c, err := NewCluster([]*Server{a}, PlaceFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.TryPlace(3, res(1, 1, 1, 1)); !ok {
		t.Fatal("TryPlace refused a twin that fits")
	}
	if err := c.Evict(3); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if c.Locate(3) != -1 || len(c.location) != 0 {
		t.Error("twin still tracked after Evict")
	}
	if err := c.Evict(3); err == nil {
		t.Error("double evict must fail")
	}
}

// Conservation property: under any sequence of place/migrate/evict, each
// server's used resources equal the sum of its hosted twins' requirements
// and never exceed capacity.
func TestClusterConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		a := &Server{ID: 0, Capacity: res(8, 8, 64, 400), twins: map[int]Resources{}}
		b := &Server{ID: 1, Capacity: res(8, 8, 64, 400), twins: map[int]Resources{}}
		c, err := NewCluster([]*Server{a, b}, PlaceLeastLoaded)
		if err != nil {
			return false
		}
		for i, op := range ops {
			twin := i % 6
			switch op % 3 {
			case 0:
				c.TryPlace(twin, res(float64(op%4)+0.5, 1, 2, 8))
			case 1:
				c.TryMigrateTwin(twin, int(op)%2)
			case 2:
				_ = c.Evict(twin)
			}
			for _, s := range c.servers {
				var sum Resources
				for _, req := range s.twins {
					sum = sum.Add(req)
				}
				if sum != s.used || !s.used.FitsIn(s.Capacity) || !s.Free().NonNegative() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPlaceOn(t *testing.T) {
	a := server(t, 0, res(4, 4, 64, 400))
	b := server(t, 1, res(4, 4, 64, 400))
	c, err := NewCluster([]*Server{a, b}, PlaceLeastLoaded)
	if err != nil {
		t.Fatal(err)
	}
	if !c.TryPlaceOn(5, 1, res(1, 1, 1, 1)) {
		t.Fatal("TryPlaceOn refused a twin that fits")
	}
	if c.Locate(5) != 1 || !hosts(b, 5) {
		t.Error("twin not on requested server")
	}
	if c.TryPlaceOn(5, 0, res(1, 1, 1, 1)) {
		t.Error("re-placing must fail")
	}
	if c.TryPlaceOn(6, 99, res(1, 1, 1, 1)) {
		t.Error("unknown server must fail")
	}
	if len(c.location) != 1 || len(a.twins) != 0 || len(b.twins) != 1 {
		t.Errorf("refused placements changed the cluster: %v", c.location)
	}
	full := server(t, 2, res(0.5, 0.5, 0.5, 0.5))
	c2, err := NewCluster([]*Server{full}, PlaceFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if c2.TryPlaceOn(7, 2, res(1, 1, 1, 1)) {
		t.Error("over-capacity TryPlaceOn must fail")
	}
	if len(c2.location) != 0 || len(full.twins) != 0 {
		t.Error("refused TryPlaceOn changed the cluster")
	}
}
