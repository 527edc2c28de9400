package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"vtmig/internal/rl"
	"vtmig/internal/serve"
	"vtmig/internal/stackelberg"
)

// testConfig keeps the learner tiny and the rotation cadence tight so a
// few hundred quotes exercise many phases and rotations.
func testConfig(dir string) serve.Config {
	ppo := rl.DefaultPPOConfig()
	ppo.Hidden = []int{8, 8}
	ppo.Epochs = 2
	ppo.MiniBatch = 5
	return serve.Config{
		Dir:           dir,
		HistoryLen:    3,
		UpdateEvery:   5,
		Seed:          7,
		PPO:           ppo,
		SnapshotEvery: 2,
	}
}

// reqStream generates a deterministic stream of valid quote requests:
// 1–3 VMUs with the paper's α ∈ [5, 20] and data ∈ [100, 300] MB,
// distances in [200, 1000] m.
func reqStream(n int) []serve.QuoteRequest {
	rng := rand.New(rand.NewSource(42))
	reqs := make([]serve.QuoteRequest, n)
	for i := range reqs {
		vmus := make([]serve.QuoteVMU, 1+rng.Intn(3))
		for j := range vmus {
			vmus[j] = serve.QuoteVMU{
				ID:     j,
				Alpha:  5 + 15*rng.Float64(),
				DataMB: 100 + 200*rng.Float64(),
			}
		}
		reqs[i] = serve.QuoteRequest{
			VMUs:      vmus,
			DistanceM: 200 + 800*rng.Float64(),
		}
	}
	return reqs
}

func mustOpen(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	s, err := serve.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func quoteAll(t *testing.T, s *serve.Server, reqs []serve.QuoteRequest) []float64 {
	t.Helper()
	prices := make([]float64, len(reqs))
	for i, req := range reqs {
		resp, err := s.Quote(context.Background(), req)
		if err != nil {
			t.Fatalf("Quote %d: %v", i, err)
		}
		if resp.Round != 0 && resp.Round <= 0 {
			t.Fatalf("Quote %d: bad round %d", i, resp.Round)
		}
		prices[i] = resp.Price
	}
	return prices
}

func agentBytes(t *testing.T, s *serve.Server) []byte {
	t.Helper()
	ck, err := s.AgentCheckpoint()
	if err != nil {
		t.Fatalf("AgentCheckpoint: %v", err)
	}
	var buf bytes.Buffer
	if err := ck.SaveBinary(&buf); err != nil {
		t.Fatalf("SaveBinary: %v", err)
	}
	return buf.Bytes()
}

func TestServeQuoteLearnsAndRotates(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	defer s.Close()

	reqs := reqStream(23)
	prices := quoteAll(t, s, reqs)
	g := stackelberg.DefaultGame()
	for i, p := range prices {
		if math.IsNaN(p) || p < g.Cost || p > g.PMax {
			t.Fatalf("price %d = %g outside [%g, %g]", i, p, g.Cost, g.PMax)
		}
	}
	st := s.Stats()
	// 23 rounds at UpdateEvery=5 → 4 phases; SnapshotEvery=2 → rotations
	// at phases 2 and 4 (snapshots 1 and 2, after the boot snapshot 0).
	if st.Rounds != 23 || st.Updates != 4 || st.Snapshots != 2 || st.Pending != 3 {
		t.Fatalf("stats = %+v, want rounds=23 updates=4 snapshots=2 pending=3", st)
	}
	if !st.BestSet {
		t.Fatalf("BestSet false after 23 rounds")
	}
	// Rotation 2's boundary published checkpoint 1 and switched the
	// journal to extend it, carrying the 10 rounds since boundary 1; the
	// journal holds those plus the 3 rounds since. Checkpoint 2 is taken
	// but is published only at rotation 3's boundary.
	if st.JournalEntries != 13 {
		t.Fatalf("JournalEntries = %d, want 13", st.JournalEntries)
	}
	if _, err := os.Stat(serve.CheckpointPathFor(dir, 1)); err != nil {
		t.Fatalf("bound checkpoint missing: %v", err)
	}
	if _, err := os.Stat(serve.CheckpointPathFor(dir, 2)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("checkpoint 2 published before rotation 3's boundary (stat: %v)", err)
	}
}

func TestServeCrashRecoveryBitIdentical(t *testing.T) {
	reqs := reqStream(200)
	const crashAt = 123 // not a multiple of UpdateEvery: pending rounds must replay

	// Leg A: uninterrupted.
	a := mustOpen(t, testConfig(t.TempDir()))
	pricesA := quoteAll(t, a, reqs)
	wantAgent := agentBytes(t, a)
	wantStats := a.Stats()
	if err := a.Close(); err != nil {
		t.Fatalf("Close(a): %v", err)
	}

	// Leg B: crash after crashAt quotes, recover, continue.
	dir := t.TempDir()
	b := mustOpen(t, testConfig(dir))
	head := quoteAll(t, b, reqs[:crashAt])
	b.Abandon()

	b2 := mustOpen(t, testConfig(dir))
	defer b2.Close()
	st := b2.Stats()
	if st.Rounds != crashAt {
		t.Fatalf("recovered rounds = %d, want %d", st.Rounds, crashAt)
	}
	if st.ReplayedRounds == 0 {
		t.Fatalf("recovery replayed no rounds; journal should hold the tail since the last rotation")
	}
	tail := quoteAll(t, b2, reqs[crashAt:])

	got := append(append([]float64(nil), head...), tail...)
	for i := range pricesA {
		if got[i] != pricesA[i] {
			t.Fatalf("price %d diverges after crash recovery: %v != %v", i, got[i], pricesA[i])
		}
	}
	if !bytes.Equal(agentBytes(t, b2), wantAgent) {
		t.Fatalf("recovered learner state is not bit-identical to the uninterrupted run")
	}
	st = b2.Stats()
	if st.Rounds != wantStats.Rounds || st.Updates != wantStats.Updates || st.Snapshots != wantStats.Snapshots {
		t.Fatalf("recovered counters %+v, uninterrupted %+v", st, wantStats)
	}
}

func TestServeCleanRestartContinues(t *testing.T) {
	reqs := reqStream(60)
	a := mustOpen(t, testConfig(t.TempDir()))
	pricesA := quoteAll(t, a, reqs)
	wantAgent := agentBytes(t, a)
	a.Close()

	dir := t.TempDir()
	b := mustOpen(t, testConfig(dir))
	head := quoteAll(t, b, reqs[:31])
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	b2 := mustOpen(t, testConfig(dir))
	defer b2.Close()
	tail := quoteAll(t, b2, reqs[31:])
	got := append(head, tail...)
	for i := range pricesA {
		if got[i] != pricesA[i] {
			t.Fatalf("price %d diverges across clean restart: %v != %v", i, got[i], pricesA[i])
		}
	}
	if !bytes.Equal(agentBytes(t, b2), wantAgent) {
		t.Fatalf("restarted learner state is not bit-identical")
	}
}

func TestServeRecoverHeaderOnlyJournal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	s.Abandon() // crash before any quote: journal is header-only

	s2 := mustOpen(t, testConfig(dir))
	defer s2.Close()
	st := s2.Stats()
	if st.Rounds != 0 || st.ReplayedRounds != 0 || st.TornDropped != 0 {
		t.Fatalf("header-only recovery stats = %+v, want zeros", st)
	}
	if _, err := s2.Quote(context.Background(), reqStream(1)[0]); err != nil {
		t.Fatalf("Quote after header-only recovery: %v", err)
	}
}

func TestServeRefusesEmptyJournal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	jpath := s.JournalPath()
	s.Abandon()
	if err := os.Truncate(jpath, 0); err != nil {
		t.Fatal(err)
	}
	_, err := serve.Open(testConfig(dir))
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("Open over empty journal: %v, want empty-journal refusal", err)
	}
}

func TestServeTornTrailingLineDropped(t *testing.T) {
	reqs := reqStream(23)
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	quoteAll(t, s, reqs[:22])
	jpath := s.JournalPath()
	s.Abandon()

	// Simulate a crash mid-append: the journal gains a partial line that
	// was never acknowledged.
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"req":{"vm`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, testConfig(dir))
	defer s2.Close()
	st := s2.Stats()
	if st.TornDropped != 1 {
		t.Fatalf("TornDropped = %d, want 1", st.TornDropped)
	}
	if st.Rounds != 22 {
		t.Fatalf("recovered rounds = %d, want 22 (torn line excluded)", st.Rounds)
	}
	// The recovered server continues exactly like one that never saw the
	// torn bytes.
	ref := mustOpen(t, testConfig(t.TempDir()))
	defer ref.Close()
	refPrices := quoteAll(t, ref, reqs)
	if got, err := s2.Quote(context.Background(), reqs[22]); err != nil || got.Price != refPrices[22] {
		t.Fatalf("post-recovery quote = (%v, %v), want price %v", got.Price, err, refPrices[22])
	}
}

// TestJournalLinesAreCanonicalJSON pins the journal's entry encoding:
// every line — staged at its round or carried into a new journal by a
// switch, renumbered — is exactly json.Marshal of the entry, so the
// bytes stay those of a writer that marshals each entry whole.
func TestJournalLinesAreCanonicalJSON(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	quoteAll(t, s, reqStream(25)) // rotation 2's boundary carried rounds 11–20
	s.Abandon()
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 16 {
		t.Fatalf("journal has %d lines, want a header and 15 entries", len(lines))
	}
	for i, line := range lines[1:] {
		var e struct {
			Seq int                `json:"seq"`
			Req serve.QuoteRequest `json:"req"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		canonical, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if e.Seq != i+1 || string(canonical) != line {
			t.Fatalf("entry %d:\n  journal: %s\n  json:    %s", i+1, line, canonical)
		}
	}
}

func TestServeRefusesRotatedAwayCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	quoteAll(t, s, reqStream(23)) // snapshots 2; journal binds checkpoint 1
	s.Abandon()
	if err := os.Remove(serve.CheckpointPathFor(dir, 1)); err != nil {
		t.Fatal(err)
	}
	_, err := serve.Open(testConfig(dir))
	if err == nil || !strings.Contains(err.Error(), "refusing to cold-start") {
		t.Fatalf("Open with rotated-away checkpoint: %v, want loud refusal", err)
	}
}

// TestServeRefusesCheckpointCRCMismatch flips one byte of the bound
// checkpoint. nn.LoadCheckpoint's trailer check refuses that before the
// journal binding is consulted; TestServeRefusesCheckpointFromAnotherRun
// covers the binding itself.
func TestServeRefusesCheckpointCRCMismatch(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	quoteAll(t, s, reqStream(23)) // snapshots 2; journal binds checkpoint 1
	s.Abandon()
	path := serve.CheckpointPathFor(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.Open(testConfig(dir)); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Open with corrupted bound checkpoint: %v, want the checkpoint's checksum refusal", err)
	}
}

// TestServeRefusesCheckpointFromAnotherRun swaps in the bound checkpoint
// of a second run with the same config and counters but a different
// request stream. The file is intact, so only the journal's CRC binding
// can tell it apart; recovery must refuse rather than replay this run's
// journal onto the other run's learner.
func TestServeRefusesCheckpointFromAnotherRun(t *testing.T) {
	dir, other := t.TempDir(), t.TempDir()
	s := mustOpen(t, testConfig(dir))
	quoteAll(t, s, reqStream(23)) // snapshots 2; journal binds checkpoint 1
	s.Abandon()
	s = mustOpen(t, testConfig(other))
	quoteAll(t, s, reqStream(46)[23:])
	s.Abandon()
	data, err := os.ReadFile(serve.CheckpointPathFor(other, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(serve.CheckpointPathFor(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = serve.Open(testConfig(dir))
	if err == nil || !strings.Contains(err.Error(), "describe different runs") {
		t.Fatalf("Open with another run's checkpoint: %v, want the journal-binding refusal", err)
	}
}

// TestServeRefusesResidueBinding reopens a journal whose header binds
// its checkpoint by the CRC-32 residue 0x2144DF1C (558161692): the
// CRC-32 of any file that ends in its own CRC-32, so a header holding it
// would bind every checkpoint at its ordinal. Recovery must refuse it
// like any other binding the checkpoint does not match.
func TestServeRefusesResidueBinding(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	quoteAll(t, s, reqStream(23)) // snapshots 2; journal binds checkpoint 1
	jpath := s.JournalPath()
	s.Abandon()
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	header, rest, _ := bytes.Cut(data, []byte("\n"))
	residue := regexp.MustCompile(`"checkpoint_crc":\d+`).ReplaceAll(header, []byte(`"checkpoint_crc":558161692`))
	if bytes.Equal(residue, header) {
		t.Fatalf("header %s has no checkpoint_crc to replace", header)
	}
	if err := os.WriteFile(jpath, append(append(residue, '\n'), rest...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = serve.Open(testConfig(dir))
	if err == nil || !strings.Contains(err.Error(), "describe different runs") {
		t.Fatalf("Open with a residue-bound journal: %v, want the journal-binding refusal", err)
	}
}

// TestServeFailedBootLeavesNoCheckpoint makes the first Open fail after
// the boot checkpoint is written (a directory sits where the journal's
// temp file goes). The failed boot must remove that checkpoint — no
// journal binds it — so a later Open boots once the fault is gone
// instead of refusing a directory with a checkpoint and no journal.
func TestServeFailedBootLeavesNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "journal.jsonl.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.Open(testConfig(dir)); err == nil {
		t.Fatal("Open succeeded with a directory at the journal's temp path")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*")); len(left) != 0 {
		t.Fatalf("failed boot left %v", left)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, testConfig(dir))
	defer s.Close()
	quoteAll(t, s, reqStream(3))
	if st := s.Stats(); st.Rounds != 3 {
		t.Fatalf("rounds after boot = %d, want 3", st.Rounds)
	}
}

func TestServeRefusesMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	quoteAll(t, s, reqStream(4))
	jpath := s.JournalPath()
	s.Abandon()
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	lines[2] = []byte(`{"seq":2,"req":garbage}`)
	if err := os.WriteFile(jpath, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = serve.Open(testConfig(dir))
	if err == nil || !strings.Contains(err.Error(), "corrupt mid-file") {
		t.Fatalf("Open with mid-file corruption: %v, want corrupt-mid-file refusal", err)
	}
}

func TestServeRefusesSequenceGap(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	quoteAll(t, s, reqStream(4))
	jpath := s.JournalPath()
	s.Abandon()
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// Drop entry 2 (line index 2: header is line 0).
	lines = append(lines[:2], lines[3:]...)
	if err := os.WriteFile(jpath, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = serve.Open(testConfig(dir))
	if err == nil || !strings.Contains(err.Error(), "missing or reordered") {
		t.Fatalf("Open with a sequence gap: %v, want missing/reordered refusal", err)
	}
}

func TestServeRefusesGameMismatch(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	quoteAll(t, s, reqStream(3))
	s.Abandon()
	cfg := testConfig(dir)
	g := stackelberg.DefaultGame()
	g.PMax = 60
	cfg.Game = g
	_, err := serve.Open(cfg)
	if err == nil || !strings.Contains(err.Error(), "different reference game") {
		t.Fatalf("Open with changed game: %v, want fingerprint refusal", err)
	}
}

func TestServeRefusesWarmStartOnResume(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	quoteAll(t, s, reqStream(3))
	s.Abandon()
	cfg := testConfig(dir)
	g := stackelberg.DefaultGame()
	cfg.Agent = rl.NewPPO(4*(1+g.N()), 1, []float64{g.Cost}, []float64{g.PMax}, rl.DefaultPPOConfig())
	_, err := serve.Open(cfg)
	if err == nil || !strings.Contains(err.Error(), "Agent must be nil") {
		t.Fatalf("Open resume with warm-start agent: %v, want refusal", err)
	}
}

func TestServeRefusesCheckpointsWithoutJournal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	jpath := s.JournalPath()
	s.Abandon()
	if err := os.Remove(jpath); err != nil {
		t.Fatal(err)
	}
	_, err := serve.Open(testConfig(dir))
	if err == nil || !strings.Contains(err.Error(), "no journal") {
		t.Fatalf("Open with checkpoints but no journal: %v, want refusal", err)
	}
}

// TestServePrunesOldCheckpoints pins what KeepCheckpoints retains: the
// keep newest published ordinals, the journal's bound checkpoint among
// them, so 1 leaves the bound file alone. Zero selects the default, 2.
func TestServePrunesOldCheckpoints(t *testing.T) {
	for _, keep := range []int{0, 1, 2, 3} {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig(dir)
			cfg.KeepCheckpoints = keep
			s := mustOpen(t, cfg)
			defer s.Close()
			// 12 phases → snapshots 1..6. Rotation 6's boundary published
			// checkpoint 5, switched the journal to it and pruned the
			// older ones; checkpoint 6 is not published yet.
			quoteAll(t, s, reqStream(60))
			const bound = 5
			kept := keep
			if kept == 0 {
				kept = 2
			}
			var want []string
			for n := bound - kept + 1; n <= bound; n++ {
				want = append(want, serve.CheckpointPathFor(dir, n))
			}
			got, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.bin"))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("KeepCheckpoints=%d left %v, want %v", keep, got, want)
			}
		})
	}
}

func TestServeRequestValidation(t *testing.T) {
	s := mustOpen(t, testConfig(t.TempDir()))
	defer s.Close()
	cases := []struct {
		name string
		req  serve.QuoteRequest
	}{
		{"no VMUs", serve.QuoteRequest{}},
		{"NaN alpha", serve.QuoteRequest{VMUs: []serve.QuoteVMU{{ID: 0, Alpha: math.NaN(), DataMB: 100}}}},
		{"Inf data", serve.QuoteRequest{VMUs: []serve.QuoteVMU{{ID: 0, Alpha: 5, DataMB: math.Inf(1)}}}},
		{"negative alpha", serve.QuoteRequest{VMUs: []serve.QuoteVMU{{ID: 0, Alpha: -1, DataMB: 100}}}},
		{"NaN distance", serve.QuoteRequest{VMUs: []serve.QuoteVMU{{ID: 0, Alpha: 5, DataMB: 100}}, DistanceM: math.NaN()}},
		{"negative bandwidth", serve.QuoteRequest{VMUs: []serve.QuoteVMU{{ID: 0, Alpha: 5, DataMB: 100}}, AvailableMHz: -1}},
		{"duplicate IDs", serve.QuoteRequest{VMUs: []serve.QuoteVMU{{ID: 0, Alpha: 5, DataMB: 100}, {ID: 0, Alpha: 6, DataMB: 100}}}},
	}
	for _, tc := range cases {
		_, err := s.Quote(context.Background(), tc.req)
		var reqErr *serve.RequestError
		if !errors.As(err, &reqErr) {
			t.Errorf("%s: err = %v, want RequestError", tc.name, err)
		}
	}
	// Rejected requests must not advance the learning stream or journal.
	if st := s.Stats(); st.Rounds != 0 || st.JournalEntries != 0 {
		t.Fatalf("rejected requests advanced state: %+v", st)
	}
}

func TestServeQuoteAfterCloseAndContextCancel(t *testing.T) {
	s := mustOpen(t, testConfig(t.TempDir()))
	req := reqStream(1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Quote(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("Quote with canceled ctx: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Quote(context.Background(), req); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Quote after Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestServeCanceledQuoteNeverEnqueued pins that a caller whose context
// is already done never enters the stream: fifty pre-canceled quotes
// and one live one leave exactly one round and one journal entry.
func TestServeCanceledQuoteNeverEnqueued(t *testing.T) {
	s := mustOpen(t, testConfig(t.TempDir()))
	defer s.Close()
	req := reqStream(1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 50; i++ {
		if _, err := s.Quote(ctx, req); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled quote %d: err = %v, want context.Canceled", i, err)
		}
	}
	if _, err := s.Quote(context.Background(), req); err != nil {
		t.Fatalf("live quote: %v", err)
	}
	if st := s.Stats(); st.Rounds != 1 || st.JournalEntries != 1 {
		t.Fatalf("rounds = %d, journal entries = %d; want 1 and 1", st.Rounds, st.JournalEntries)
	}
}

// TestServeConcurrentQuotes drives many goroutines through the intake
// queue under the race detector: rounds all land, in some serial order.
func TestServeConcurrentQuotes(t *testing.T) {
	s := mustOpen(t, testConfig(t.TempDir()))
	defer s.Close()
	reqs := reqStream(8)
	const workers, perWorker = 16, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.Quote(context.Background(), reqs[(w+i)%len(reqs)]); err != nil {
					errs <- fmt.Errorf("worker %d quote %d: %w", w, i, err)
					return
				}
				_ = s.Stats()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Rounds != workers*perWorker {
		t.Fatalf("rounds = %d, want %d", st.Rounds, workers*perWorker)
	}
}

func TestServeConfigValidate(t *testing.T) {
	if _, err := serve.Open(serve.Config{}); err == nil || !strings.Contains(err.Error(), "Dir") {
		t.Fatalf("Open without Dir: %v", err)
	}
	cfg := testConfig(t.TempDir())
	cfg.BatchMax = -1
	if _, err := serve.Open(cfg); err == nil {
		t.Fatalf("Open with negative BatchMax succeeded")
	}
}
