package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vtmig/internal/rl"
	"vtmig/internal/serve"
)

// TestPercentileMsNearestRank pins the nearest rank ceil(q·n), including
// the fractional-q·n cases a floored rank would read one value low.
func TestPercentileMsNearestRank(t *testing.T) {
	ms := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{0, 0.5, 0},
		{1, 0.99, 1},
		{10, 0, 1},
		{10, 0.05, 1},
		{10, 0.11, 2},
		{10, 0.5, 5},
		{10, 0.95, 10},
		{10, 1, 10},
		{150, 0.5, 75},
		{150, 0.95, 143},
		{150, 0.99, 149},
		{120, 0.99, 119},
		{1000, 0.99, 990},
	} {
		if got := percentileMs(ms(c.n), c.q); got != c.want {
			t.Errorf("percentileMs(1..%d ms, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestLoadgenAgainstServeHandler(t *testing.T) {
	ppo := rl.DefaultPPOConfig()
	ppo.Hidden = []int{8, 8}
	ppo.Epochs = 2
	ppo.MiniBatch = 5
	s, err := serve.Open(serve.Config{
		Dir:         t.TempDir(),
		UpdateEvery: 10,
		Seed:        3,
		PPO:         ppo,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "loadgen.json")
	var stdout bytes.Buffer
	if err := run([]string{
		"-addr", ts.URL, "-clients", "8", "-requests", "120", "-out", out,
	}, &stdout); err != nil {
		t.Fatalf("run: %v (output %q)", err, stdout.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Requests != 120 || rep.RPS <= 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.P50Ms <= 0 || rep.P95Ms < rep.P50Ms || rep.P99Ms < rep.P95Ms {
		t.Fatalf("percentiles not monotone: %+v", rep)
	}
	if len(rep.Targets) != 1 || rep.Targets[0].Addr != ts.URL || rep.Targets[0].Requests != 120 {
		t.Fatalf("single-target report carries targets %+v", rep.Targets)
	}
	// Every request reached the learner, in some serial order.
	if st := s.Stats(); st.Rounds != 120 {
		t.Fatalf("server rounds = %d, want 120", st.Rounds)
	}
}

// TestLoadgenMultiTarget spreads the budget across a primary and one of
// its read replicas and checks the per-target accounting: every request
// lands on exactly one target, both targets get traffic, and each
// target's percentiles are self-consistent.
func TestLoadgenMultiTarget(t *testing.T) {
	ppo := rl.DefaultPPOConfig()
	ppo.Hidden = []int{4}
	ppo.Epochs = 1
	ppo.MiniBatch = 2
	dir := t.TempDir()
	cfg := serve.Config{Dir: dir, HistoryLen: 2, UpdateEvery: 2, Seed: 9, PPO: ppo}
	s, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Roll past one rotation so a replica has a checkpoint to freeze.
	var stdoutWarm bytes.Buffer
	tsPrimary := httptest.NewServer(s.Handler())
	defer tsPrimary.Close()
	if err := run([]string{"-addr", tsPrimary.URL, "-clients", "2", "-requests", "4"}, &stdoutWarm); err != nil {
		t.Fatalf("warm-up load: %v", err)
	}

	r, err := serve.OpenReplica(serve.ReplicaConfig{Dir: dir, HistoryLen: 2, PPO: ppo})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tsReplica := httptest.NewServer(r.Handler())
	defer tsReplica.Close()

	out := filepath.Join(t.TempDir(), "loadgen.json")
	var stdout bytes.Buffer
	if err := run([]string{
		"-addr", tsPrimary.URL + "," + tsReplica.URL,
		"-clients", "8", "-requests", "80", "-out", out,
	}, &stdout); err != nil {
		t.Fatalf("run: %v (output %q)", err, stdout.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Targets) != 2 || rep.Errors != 0 {
		t.Fatalf("report %+v", rep)
	}
	total := 0
	for _, tr := range rep.Targets {
		if tr.Requests == 0 {
			t.Fatalf("target %s got no traffic: %+v", tr.Addr, rep.Targets)
		}
		if tr.P50Ms <= 0 || tr.P95Ms < tr.P50Ms || tr.P99Ms < tr.P95Ms {
			t.Fatalf("target %s percentiles not monotone: %+v", tr.Addr, tr)
		}
		total += tr.Requests
	}
	if total != 80 {
		t.Fatalf("targets account for %d of 80 requests", total)
	}
	if rep.Targets[0].Addr != tsPrimary.URL || rep.Targets[1].Addr != tsReplica.URL {
		t.Fatalf("target order %+v", rep.Targets)
	}
}

func TestLoadgenFlagValidation(t *testing.T) {
	if err := run([]string{"-clients", "0"}, &bytes.Buffer{}); err == nil {
		t.Fatal("run with -clients 0 succeeded")
	}
	if err := run([]string{"-addr", " , "}, &bytes.Buffer{}); err == nil {
		t.Fatal("run with empty -addr targets succeeded")
	}
	if err := run([]string{"-addr", "a,b,c", "-clients", "2"}, &bytes.Buffer{}); err == nil {
		t.Fatal("run with fewer clients than targets succeeded")
	}
}
