package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vtmig/internal/serve"
	"vtmig/internal/stackelberg"
)

// replicaConfig mirrors testConfig for the read side: same reference
// game and learner architecture, no refresh poller (tests drive Refresh
// explicitly for determinism).
func replicaConfig(dir string) serve.ReplicaConfig {
	cfg := testConfig(dir)
	return serve.ReplicaConfig{Dir: dir, Game: cfg.Game, HistoryLen: cfg.HistoryLen, PPO: cfg.PPO}
}

// TestReplicaByteIdenticalToPrimary pins the replica half of contract
// rule 8: a replica opened on the primary's latest published checkpoint
// answers every quote with exactly the price the primary posted for its
// first round after that snapshot — same float bits — while reporting
// the snapshot's round ordinal; and Refresh tracks the primary across
// further rotations without breaking that identity. A checkpoint is
// published one rotation after it is taken, so the replica trails the
// primary's latest rotation by one.
func TestReplicaByteIdenticalToPrimary(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	defer s.Close()
	reqs := reqStream(140)
	prices := make([]float64, len(reqs))
	quote := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			resp, err := s.Quote(context.Background(), reqs[i])
			if err != nil {
				t.Fatal(err)
			}
			prices[i] = resp.Price
		}
	}
	// 120 rounds with UpdateEvery=5, SnapshotEvery=2 → a rotation lands
	// exactly at round 120 (snapshot ordinal 12); its boundary publishes
	// ordinal 11, taken at round 110.
	quote(0, 120)

	r, err := serve.OpenReplica(replicaConfig(dir))
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	defer r.Close()
	rst := r.Stats()
	if !rst.Replica || rst.Snapshots != 11 || rst.Rounds != 110 || rst.Refreshes != 1 {
		t.Fatalf("replica stats after open: %+v", rst)
	}
	if rst.CheckpointAgeS < 0 {
		t.Fatalf("negative staleness %v", rst.CheckpointAgeS)
	}

	// The replica's answer must be byte-identical to the primary's answer
	// at the same snapshot ordinal — the primary's round 111 was the first
	// priced at the checkpointed state.
	fromReplica, err := r.Quote(context.Background(), reqs[120])
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(fromReplica.Price) != math.Float64bits(prices[110]) {
		t.Fatalf("replica price %x, primary's round-111 price %x", math.Float64bits(fromReplica.Price), math.Float64bits(prices[110]))
	}
	if fromReplica.Round != 110 || fromReplica.Updates != 22 {
		t.Fatalf("replica reports round %d updates %d, want the frozen 110/22", fromReplica.Round, fromReplica.Updates)
	}

	// A different request gets the same frozen price (the deterministic
	// readout depends only on the belief state, clamped per round).
	other, err := r.Quote(context.Background(), reqs[121])
	if err != nil {
		t.Fatal(err)
	}
	if other.Price != fromReplica.Price {
		t.Fatalf("frozen price varied across requests: %v vs %v", other.Price, fromReplica.Price)
	}

	// Refresh follows the primary to the next rotation (round 130,
	// ordinal 13, which publishes ordinal 12 from round 120) and restores
	// the same next-round identity.
	quote(120, 130)
	if err := r.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if rst := r.Stats(); rst.Snapshots != 12 || rst.Rounds != 120 || rst.Refreshes != 2 {
		t.Fatalf("replica stats after refresh: %+v", rst)
	}
	fromReplica, err = r.Quote(context.Background(), reqs[130])
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(fromReplica.Price) != math.Float64bits(prices[120]) {
		t.Fatalf("after refresh: replica price %x, primary's round-121 price %x", math.Float64bits(fromReplica.Price), math.Float64bits(prices[120]))
	}

	// Request validation matches the primary's surface.
	var reqErr *serve.RequestError
	if _, err := r.Quote(context.Background(), serve.QuoteRequest{}); !errors.As(err, &reqErr) {
		t.Fatalf("invalid request: %v, want RequestError", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Quote(context.Background(), reqs[0]); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("quote after close: %v, want ErrClosed", err)
	}
}

// TestReplicaRefreshRacesPrune races a replica's refreshes against the
// primary's checkpoint pruning. With KeepCheckpoints 1 and a rotation
// every round, each boundary deletes the checkpoint the previous one
// published, so a refresh that found that file as the newest can lose it
// before reading it. Such a refresh must fail with fs.ErrNotExist and be
// counted in RefreshErrors, never with a decode or checksum error (which
// would mean it read a torn file), and the replica must keep serving:
// every (round, price) it answers is bit for bit the price the primary
// posted for the round after that round.
//
// A free-running refresh picks each new file microseconds after its
// publication, a full rotation before its prune, so the first half
// (a refresh and quote loop beside 300 recorded rounds) rarely loses a
// file. The second half forces the loss: it holds one refresh between
// its pick and its read while the primary crosses the two boundaries
// that publish a newer checkpoint and prune the picked one.
func TestReplicaRefreshRacesPrune(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.UpdateEvery = 1
	cfg.SnapshotEvery = 1
	cfg.KeepCheckpoints = 1
	s := mustOpen(t, cfg)
	defer s.Close()
	r, err := serve.OpenReplica(replicaConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	type answer struct {
		round int
		price float64
	}
	var (
		answers     []answer
		refreshErrs []error
		wg          sync.WaitGroup
	)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := reqStream(1)[0]
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.Refresh(); err != nil {
				refreshErrs = append(refreshErrs, err)
			}
			resp, err := r.Quote(context.Background(), req)
			if err != nil {
				t.Errorf("replica stopped serving: %v", err)
				return
			}
			answers = append(answers, answer{resp.Round, resp.Price})
		}
	}()
	reqs := reqStream(302)
	prices := quoteAll(t, s, reqs[:300])
	close(stop)
	wg.Wait()
	t.Logf("%d replica quotes, %d refreshes, %d refreshes lost their file to a prune",
		len(answers), r.Stats().Refreshes, len(refreshErrs))

	// Round 300 published checkpoint 299 (one rotation back) and round
	// 301 publishes 300. The refresh held at its pick of 300 reads it only
	// after round 302 has published 301 and pruned 300.
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	prices = append(prices, quoteAll(t, s, reqs[300:301])...)
	picked, release := make(chan string), make(chan struct{})
	r.SetTestHookPicked(func(path string) {
		picked <- path
		<-release
	})
	refreshed := make(chan error, 1)
	go func() { refreshed <- r.Refresh() }()
	path := <-picked
	prices = append(prices, quoteAll(t, s, reqs[301:302])...)
	close(release)
	err = <-refreshed
	r.SetTestHookPicked(nil)
	mustExist(t, path, false)
	if err == nil {
		t.Fatalf("refresh of pruned %s succeeded", path)
	}
	refreshErrs = append(refreshErrs, err)
	req := reqStream(1)[0]
	for _, refresh := range []bool{false, true} {
		if refresh {
			if err := r.Refresh(); err != nil {
				t.Fatalf("refresh after the lost file: %v", err)
			}
		}
		resp, err := r.Quote(context.Background(), req)
		if err != nil {
			t.Fatalf("replica stopped serving after a lost refresh: %v", err)
		}
		answers = append(answers, answer{resp.Round, resp.Price})
	}
	if got := answers[len(answers)-1].round; got != 301 {
		t.Errorf("replica refreshed to round %d, want 301 (checkpoint 301, published at round 302)", got)
	}

	for _, err := range refreshErrs {
		if !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("refresh failed with %v; the only failure a prune may cause is a vanished file (fs.ErrNotExist)", err)
		}
	}
	if got := r.Stats().RefreshErrors; got != len(refreshErrs) {
		t.Errorf("Stats().RefreshErrors = %d, want the %d failed refreshes", got, len(refreshErrs))
	}
	for _, a := range answers {
		if a.round >= len(prices) {
			t.Fatalf("replica answered from round %d; the primary posted %d rounds", a.round, len(prices))
		}
		if math.Float64bits(a.price) != math.Float64bits(prices[a.round]) {
			t.Fatalf("replica frozen at round %d answered %v, the primary posted %v for round %d",
				a.round, a.price, prices[a.round], a.round+1)
		}
	}
}

// TestReplicaOpenRefusals covers the strict-open surface: no journal, no
// rotated checkpoint usable, or a mismatched reference game all refuse
// loudly instead of serving something wrong.
func TestReplicaOpenRefusals(t *testing.T) {
	if _, err := serve.OpenReplica(serve.ReplicaConfig{}); err == nil {
		t.Fatal("OpenReplica without Dir succeeded")
	}
	if _, err := serve.OpenReplica(serve.ReplicaConfig{Dir: t.TempDir()}); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("OpenReplica on empty dir: %v", err)
	}

	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	s.Close()
	cfg := replicaConfig(dir)
	other := *stackelberg.DefaultGame()
	other.Cost = 6
	cfg.Game = &other
	if _, err := serve.OpenReplica(cfg); err == nil || !strings.Contains(err.Error(), "different reference game") {
		t.Fatalf("OpenReplica with mismatched game: %v", err)
	}
}

// TestReplicaHTTP serves a replica through the shared HTTP front end:
// the quote payload is byte-identical to the primary's at the same
// ordinal, and /v1/stats carries the replica shape with its staleness
// signal.
func TestReplicaHTTP(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	defer s.Close()
	reqs := reqStream(20)
	quote := func(reqs []serve.QuoteRequest) {
		t.Helper()
		for _, req := range reqs {
			if _, err := s.Quote(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	primarySrv := httptest.NewServer(s.Handler())
	defer primarySrv.Close()

	// Round 10 ends rotation 1; the primary's round 11, asked over HTTP,
	// is the first priced at checkpoint 1's state. Rotation 2's boundary
	// at round 20 publishes checkpoint 1 for the replica.
	quote(reqs[:10])
	body, _ := json.Marshal(reqs[10])
	fromPrimary := postJSON(t, primarySrv.URL+"/v1/quote", string(body))
	quote(reqs[11:20])

	r, err := serve.OpenReplica(replicaConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	replicaSrv := httptest.NewServer(r.Handler())
	defer replicaSrv.Close()

	fromReplica := postJSON(t, replicaSrv.URL+"/v1/quote", string(body))
	var pr, rr serve.QuoteResponse
	if err := json.Unmarshal([]byte(fromPrimary), &pr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(fromReplica), &rr); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(pr.Price) != math.Float64bits(rr.Price) {
		t.Fatalf("HTTP replica price %v, primary price %v", rr.Price, pr.Price)
	}

	resp, err := http.Get(replicaSrv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rst serve.ReplicaStats
	if err := json.NewDecoder(resp.Body).Decode(&rst); err != nil {
		t.Fatal(err)
	}
	if !rst.Replica || rst.Rounds != 10 {
		t.Fatalf("replica HTTP stats: %+v", rst)
	}
}

// postJSON posts a JSON body and returns the response body, failing on
// non-200.
func postJSON(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d: %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}
