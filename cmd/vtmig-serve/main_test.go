package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"vtmig/internal/serve"
)

// startDaemon runs the command against dir on an ephemeral port and
// returns the base URL plus a shutdown func that blocks until run
// returns.
func startDaemon(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ready := make(chan string, 1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), ready, stop) }()
	select {
	case addr := <-ready:
		return "http://" + addr, func() error {
			close(stop)
			return <-errc
		}
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
		return "", nil
	}
}

func postQuote(t *testing.T, base, body string) serve.QuoteResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/quote", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quote status %d", resp.StatusCode)
	}
	var q serve.QuoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	return q
}

func TestServeDaemonQuoteRestartResume(t *testing.T) {
	dir := t.TempDir()
	base, shutdown := startDaemon(t, "-dir", dir, "-update-every", "3", "-seed", "11")

	const round = `{"vmus":[{"id":0,"alpha":6,"data_mb":180},{"id":1,"alpha":14,"data_mb":120}],"distance_m":450}`
	var prices []float64
	for i := 0; i < 5; i++ {
		q := postQuote(t, base, round)
		if q.Round != i+1 {
			t.Fatalf("round %d, want %d", q.Round, i+1)
		}
		prices = append(prices, q.Price)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Restart over the same state dir: counters continue, the next quote
	// matches what an uninterrupted daemon would have answered.
	base2, shutdown2 := startDaemon(t, "-dir", dir, "-update-every", "3", "-seed", "11")
	resp, err := http.Get(base2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Rounds != 5 || st.Updates != 1 {
		t.Fatalf("restarted stats %+v, want rounds=5 updates=1", st)
	}
	q := postQuote(t, base2, round)
	if q.Round != 6 {
		t.Fatalf("post-restart round %d, want 6", q.Round)
	}
	if err := shutdown2(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}

	// Reference: the same six rounds on one uninterrupted daemon.
	base3, shutdown3 := startDaemon(t, "-dir", t.TempDir(), "-update-every", "3", "-seed", "11")
	for i := 0; i < 5; i++ {
		if got := postQuote(t, base3, round); got.Price != prices[i] {
			t.Fatalf("reference price %d = %v, daemon answered %v", i, got.Price, prices[i])
		}
	}
	if got := postQuote(t, base3, round); got.Price != q.Price {
		t.Fatalf("restarted daemon's 6th quote %v, uninterrupted %v", q.Price, got.Price)
	}
	if err := shutdown3(); err != nil {
		t.Fatalf("third shutdown: %v", err)
	}
}

func TestServeDaemonRequiresDir(t *testing.T) {
	if err := run(nil, nil, nil); err == nil || !strings.Contains(err.Error(), "-dir") {
		t.Fatalf("run without -dir: %v", err)
	}
}

// TestServeDaemonReplica runs a primary and a -replica-of daemon over one
// state directory and pins the serving contract end to end: the replica
// answers with exactly the price the primary posted for its first round
// after the shared snapshot, and its /v1/stats carries the replica shape.
func TestServeDaemonReplica(t *testing.T) {
	dir := t.TempDir()
	base, shutdown := startDaemon(t, "-dir", dir, "-update-every", "2", "-seed", "7", "-batch-max", "4")

	const round = `{"vmus":[{"id":0,"alpha":6,"data_mb":180},{"id":1,"alpha":14,"data_mb":120}],"distance_m":450}`
	// Four quotes with UpdateEvery=2, SnapshotEvery=1 → rotations at
	// rounds 2 and 4. A checkpoint is published one rotation after it is
	// taken, so the latest published one freezes the round-2 state.
	var prices []float64
	for i := 0; i < 4; i++ {
		prices = append(prices, postQuote(t, base, round).Price)
	}

	rbase, rshutdown := startDaemon(t, "-replica-of", dir, "-refresh", "0")
	resp, err := http.Get(rbase + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var rst serve.ReplicaStats
	if err := json.NewDecoder(resp.Body).Decode(&rst); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !rst.Replica || rst.Rounds != 2 || rst.Snapshots != 1 {
		t.Fatalf("replica daemon stats %+v, want replica at snapshot 1 / 2 rounds", rst)
	}

	fromReplica := postQuote(t, rbase, round)
	if fromReplica.Price != prices[2] { // primary's round 3: first after the snapshot
		t.Fatalf("replica daemon price %v, primary %v", fromReplica.Price, prices[2])
	}
	if fromReplica.Round != 2 {
		t.Fatalf("replica reports round %d, want the frozen 2", fromReplica.Round)
	}

	if err := rshutdown(); err != nil {
		t.Fatalf("replica shutdown: %v", err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}
}

// TestServeDaemonReplicaFlagExclusion pins the flag surface: a replica
// must not be pointed at its own -dir or warm-started.
func TestServeDaemonReplicaFlagExclusion(t *testing.T) {
	err := run([]string{"-dir", t.TempDir(), "-replica-of", t.TempDir()}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("run with -dir and -replica-of: %v", err)
	}
	err = run([]string{"-replica-of", t.TempDir(), "-warm-start-file", "ck.bin"}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "warm-start") {
		t.Fatalf("run with -replica-of and -warm-start-file: %v", err)
	}
}

func TestServeDaemonRefusesChangedLR(t *testing.T) {
	dir := t.TempDir()
	base, shutdown := startDaemon(t, "-dir", dir, "-update-every", "2")
	// Roll past a rotation so the restart resumes from a checkpoint whose
	// fingerprint pins the learning rate.
	for i := 0; i < 2; i++ {
		postQuote(t, base, `{"vmus":[{"id":0,"alpha":6,"data_mb":180}]}`)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	err := run([]string{"-addr", "127.0.0.1:0", "-dir", dir, "-update-every", "2", "-lr", "0.009"}, nil, nil)
	if err == nil {
		t.Fatalf("restart with a different -lr succeeded; the checkpoint fingerprint should refuse it")
	}
}
