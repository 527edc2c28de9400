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
	if err := s.Deploy(1, res(2, 1, 8, 40)); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if !s.Hosts(1) || s.TwinCount() != 1 {
		t.Error("twin not hosted after Deploy")
	}
	if got := s.Free(); got != res(2, 1, 8, 60) {
		t.Errorf("Free = %+v", got)
	}
	if err := s.Remove(1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if got := s.Used(); got != res(0, 0, 0, 0) {
		t.Errorf("Used after Remove = %+v", got)
	}
}

func TestDeployRejections(t *testing.T) {
	s := server(t, 0, res(4, 2, 16, 100))
	if err := s.Deploy(1, res(3, 1, 8, 40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Deploy(1, res(1, 0, 0, 0)); err == nil {
		t.Error("duplicate deploy must fail")
	}
	if err := s.Deploy(2, res(2, 0, 0, 0)); err == nil {
		t.Error("over-capacity deploy must fail")
	}
	if err := s.Deploy(3, res(-1, 0, 0, 0)); err == nil {
		t.Error("negative requirement must fail")
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
	if err := s.Deploy(1, res(1, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := s.CPUUtilization(); got != 0.25 {
		t.Errorf("utilization = %v, want 0.25", got)
	}
}

func TestRenderingLatency(t *testing.T) {
	s := server(t, 0, res(4, 0, 16, 100))
	// Empty server: latency = 1/μ = 1/(5·4).
	l, err := s.RenderingLatency(2, 5)
	if err != nil {
		t.Fatalf("RenderingLatency: %v", err)
	}
	if l != 0.05 {
		t.Errorf("idle latency = %v, want 0.05", l)
	}
	// 3 twins at 2 tasks/s: λ=6, μ=20 ⇒ 1/14.
	for i := 0; i < 3; i++ {
		if err := s.Deploy(i, res(1, 0, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	l, err = s.RenderingLatency(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0 / 14; l != want {
		t.Errorf("loaded latency = %v, want %v", l, want)
	}
}

func TestRenderingLatencySaturation(t *testing.T) {
	s := server(t, 0, res(1, 0, 16, 100))
	for i := 0; i < 3; i++ {
		if err := s.Deploy(i, res(0.2, 0, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// λ = 3·2 = 6 ≥ μ = 5·1 ⇒ saturated.
	if _, err := s.RenderingLatency(2, 5); err == nil {
		t.Error("saturated server must error")
	}
	if _, err := s.RenderingLatency(0, 5); err == nil {
		t.Error("non-positive task rate must error")
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	s := server(t, 0, res(10, 0, 100, 1000))
	prev := 0.0
	for i := 0; i < 8; i++ {
		if err := s.Deploy(i, res(1, 0, 1, 1)); err != nil {
			t.Fatal(err)
		}
		l, err := s.RenderingLatency(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if l <= prev {
			t.Fatalf("latency must grow with load: %v after %v", l, prev)
		}
		prev = l
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
	id, err := c.Place(1, res(1, 1, 1, 1))
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if id != 0 {
		t.Errorf("first fit placed on %d, want 0", id)
	}
	// Too big for server 0 -> goes to 1.
	id, err = c.Place(2, res(4, 4, 4, 4))
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if id != 1 {
		t.Errorf("oversize twin placed on %d, want 1", id)
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
		if _, err := c.Place(i, res(1, 1, 1, 1)); err != nil {
			t.Fatalf("Place(%d): %v", i, err)
		}
	}
	if a.TwinCount() != 2 || b.TwinCount() != 2 {
		t.Errorf("least-loaded split = %d/%d, want 2/2", a.TwinCount(), b.TwinCount())
	}
}

func TestPlacementExhaustion(t *testing.T) {
	a := server(t, 0, res(1, 1, 1, 1))
	c, err := NewCluster([]*Server{a}, PlaceFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(1, res(1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(2, res(1, 1, 1, 1)); err == nil {
		t.Error("exhausted cluster must reject placement")
	}
	if _, err := c.Place(1, res(0.1, 0.1, 0.1, 0.1)); err == nil {
		t.Error("re-placing a placed twin must fail")
	}
}

func TestMigrateTwin(t *testing.T) {
	a := server(t, 0, res(4, 4, 64, 400))
	b := server(t, 1, res(4, 4, 64, 400))
	c, err := NewCluster([]*Server{a, b}, PlaceFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(7, res(2, 2, 8, 40)); err != nil {
		t.Fatal(err)
	}
	if err := c.MigrateTwin(7, 1); err != nil {
		t.Fatalf("MigrateTwin: %v", err)
	}
	if c.Locate(7) != 1 || !b.Hosts(7) || a.Hosts(7) {
		t.Error("twin not moved correctly")
	}
	if got := a.Used(); got != res(0, 0, 0, 0) {
		t.Errorf("source not released: %+v", got)
	}
}

func TestMigrateTwinErrors(t *testing.T) {
	a := server(t, 0, res(4, 4, 64, 400))
	b := server(t, 1, res(1, 1, 1, 1))
	c, err := NewCluster([]*Server{a, b}, PlaceFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MigrateTwin(9, 1); err == nil {
		t.Error("migrating unplaced twin must fail")
	}
	if _, err := c.Place(7, res(2, 2, 8, 40)); err != nil {
		t.Fatal(err)
	}
	if err := c.MigrateTwin(7, 0); err == nil {
		t.Error("self-migration must fail")
	}
	if err := c.MigrateTwin(7, 99); err == nil {
		t.Error("unknown destination must fail")
	}
	// Destination too small: must fail and leave the source intact.
	if err := c.MigrateTwin(7, 1); err == nil {
		t.Error("over-capacity migration must fail")
	}
	if c.Locate(7) != 0 || !a.Hosts(7) {
		t.Error("failed migration corrupted placement")
	}
}

// TestTryMigrateTwinMatchesMigrateTwin pins that the error-free variant
// applies exactly MigrateTwin's checks: on every outcome both report the
// same success and leave identical cluster state.
func TestTryMigrateTwinMatchesMigrateTwin(t *testing.T) {
	newCluster := func() *Cluster {
		c, err := NewCluster([]*Server{
			server(t, 0, res(4, 4, 64, 400)),
			server(t, 1, res(1, 1, 1, 1)),
			server(t, 2, res(4, 4, 64, 400)),
		}, PlaceFirstFit)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PlaceOn(7, 0, res(2, 2, 8, 40)); err != nil {
			t.Fatal(err)
		}
		if err := c.PlaceOn(8, 2, res(1, 1, 4, 10)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name       string
		twin, dest int
		wantOK     bool
	}{
		{"not placed", 9, 2, false},
		{"already there", 7, 0, false},
		{"unknown destination", 7, 99, false},
		{"full destination", 7, 1, false},
		{"success", 7, 2, true},
	} {
		viaErr, viaTry := newCluster(), newCluster()
		err := viaErr.MigrateTwin(tc.twin, tc.dest)
		ok := viaTry.TryMigrateTwin(tc.twin, tc.dest)
		if (err == nil) != ok || ok != tc.wantOK {
			t.Errorf("%s: MigrateTwin error %v, TryMigrateTwin %v, want success %v", tc.name, err, ok, tc.wantOK)
		}
		if !reflect.DeepEqual(viaErr.location, viaTry.location) {
			t.Errorf("%s: placements %v vs %v", tc.name, viaErr.location, viaTry.location)
		}
		for i, srv := range viaErr.Servers() {
			other := viaTry.Servers()[i]
			if srv.Used() != other.Used() || !reflect.DeepEqual(srv.twins, other.twins) {
				t.Errorf("%s: server %d holds %v using %+v vs %v using %+v", tc.name, srv.ID, srv.twins, srv.Used(), other.twins, other.Used())
			}
		}
	}
}

func TestEvict(t *testing.T) {
	a := server(t, 0, res(4, 4, 64, 400))
	c, err := NewCluster([]*Server{a}, PlaceFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(3, res(1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Evict(3); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if c.Locate(3) != -1 || c.TotalTwins() != 0 {
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
				_, _ = c.Place(twin, res(float64(op%4)+0.5, 1, 2, 8))
			case 1:
				_ = c.MigrateTwin(twin, int(op)%2)
			case 2:
				_ = c.Evict(twin)
			}
			for _, s := range c.Servers() {
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
	if err := c.PlaceOn(5, 1, res(1, 1, 1, 1)); err != nil {
		t.Fatalf("PlaceOn: %v", err)
	}
	if c.Locate(5) != 1 || !b.Hosts(5) {
		t.Error("twin not on requested server")
	}
	if err := c.PlaceOn(5, 0, res(1, 1, 1, 1)); err == nil {
		t.Error("re-placing must fail")
	}
	if err := c.PlaceOn(6, 99, res(1, 1, 1, 1)); err == nil {
		t.Error("unknown server must fail")
	}
	full := server(t, 2, res(0.5, 0.5, 0.5, 0.5))
	c2, err := NewCluster([]*Server{full}, PlaceFirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.PlaceOn(7, 2, res(1, 1, 1, 1)); err == nil {
		t.Error("over-capacity PlaceOn must fail")
	}
}
