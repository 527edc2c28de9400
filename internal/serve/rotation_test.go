package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vtmig/internal/serve"
)

// The tests in this file pin the rotation pipeline: checkpoint k is
// written by the persistence goroutine after rotation k's boundary and
// published, with the journal switched to extend it, at rotation k+1's
// boundary. testConfig rotates every 10 rounds, so rotation k's boundary
// is round 10k. `make serve-smoke` runs them with -race -count=10.

// rotationRun is an uninterrupted reference run of a request stream.
type rotationRun struct {
	prices  []float64
	learner []byte
	disk    string // diskState after Close
}

func referenceRun(t *testing.T, reqs []serve.QuoteRequest) rotationRun {
	t.Helper()
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	run := rotationRun{prices: quoteAll(t, s, reqs), learner: agentBytes(t, s)}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	run.disk = diskState(t, dir)
	return run
}

// resumeMatches reopens dir, which holds the first len(head) rounds of
// reqs (head are their acknowledged prices), and checks that it recovers
// exactly those rounds and then continues bit-identically to ref: every
// price, the final learner bytes, and — after Close — the journal and the
// published checkpoints.
func resumeMatches(t *testing.T, dir string, reqs []serve.QuoteRequest, head []float64, ref rotationRun) {
	t.Helper()
	s := mustOpen(t, testConfig(dir))
	if got := s.Stats().Rounds; got != len(head) {
		s.Close()
		t.Fatalf("reopened at %d rounds, %d were acknowledged", got, len(head))
	}
	prices := append(append([]float64(nil), head...), quoteAll(t, s, reqs[len(head):])...)
	for i := range prices {
		if prices[i] != ref.prices[i] {
			s.Close()
			t.Fatalf("price %d = %v after recovery, uninterrupted %v", i, prices[i], ref.prices[i])
		}
	}
	if !bytes.Equal(agentBytes(t, s), ref.learner) {
		t.Error("learner state after recovery is not bit-identical to the uninterrupted run")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := diskState(t, dir); got != ref.disk {
		t.Errorf("state dir after recovery:\n%s\nuninterrupted:\n%s", got, ref.disk)
	}
}

// boundOrdinal reads the snapshot ordinal the live journal's header binds.
func boundOrdinal(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := bytes.Cut(data, []byte("\n"))
	var h struct {
		Snapshots int `json:"snapshots"`
	}
	if err := json.Unmarshal(header, &h); err != nil {
		t.Fatalf("journal header %q: %v", header, err)
	}
	return h.Snapshots
}

func mustExist(t *testing.T, path string, want bool) {
	t.Helper()
	if _, err := os.Stat(path); (err == nil) != want {
		t.Fatalf("%s exists = %v, want %v (stat: %v)", filepath.Base(path), err == nil, want, err)
	}
}

// TestServeRotationCrashWindows crashes the primary at every round
// around two rotation boundaries, and at each step inside a boundary's
// commit by constructing the files a crash there leaves. Every case must
// reopen to exactly the acknowledged rounds and then continue
// bit-identically to an uninterrupted run.
func TestServeRotationCrashWindows(t *testing.T) {
	reqs := reqStream(45)
	ref := referenceRun(t, reqs)

	// Abandon after each round from r_1 - 1 to r_3 + 1: across the first
	// hand-off (boundary 1, nothing to commit yet) and the first two
	// commits (boundaries 2 and 3).
	for n := 9; n <= 31; n++ {
		t.Run(fmt.Sprintf("abandon-after-%d", n), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, testConfig(dir))
			head := quoteAll(t, s, reqs[:n])
			s.Abandon()
			resumeMatches(t, dir, reqs, head, ref)
		})
	}

	// Constructed states. Each starts from a crash after round n, before
	// or after rotation 3's boundary at round 30, and edits the files to
	// what a crash at a finer point would have left.
	ck2 := func(dir string) string { return serve.CheckpointPathFor(dir, 2) }
	cases := []struct {
		name  string
		n     int
		crash func(t *testing.T, dir string)
	}{
		{"partial checkpoint temp file", 25, func(t *testing.T, dir string) {
			// The persistence goroutine died mid-write of checkpoint 2.
			data, err := os.ReadFile(ck2(dir) + ".tmp")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ck2(dir)+".tmp", data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"durable but unpublished checkpoint", 29, func(t *testing.T, dir string) {
			// Rotation 3's boundary was reached but nothing was committed:
			// checkpoint 2 and its journal are complete temp files, and
			// the carried entries were half written when the process died.
			mustExist(t, ck2(dir)+".tmp", true)
			mustExist(t, ck2(dir), false)
			f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl.tmp"), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`{"seq":1,"req":{"vmus":[{"id"`); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"published checkpoint, journal one rotation back", 29, func(t *testing.T, dir string) {
			// Rotation 3's boundary renamed checkpoint 2 into place, then
			// died before switching the journal to it.
			if err := os.Rename(ck2(dir)+".tmp", ck2(dir)); err != nil {
				t.Fatal(err)
			}
			if got := boundOrdinal(t, dir); got != 1 {
				t.Fatalf("journal binds checkpoint %d, want 1", got)
			}
		}},
		{"switched journal before the prune", 31, func(t *testing.T, dir string) {
			// Rotation 3's boundary switched the journal to checkpoint 2,
			// then died before pruning checkpoint 0.
			if got := boundOrdinal(t, dir); got != 2 {
				t.Fatalf("journal binds checkpoint %d, want 2", got)
			}
			mustExist(t, serve.CheckpointPathFor(dir, 0), false)
			if err := os.WriteFile(serve.CheckpointPathFor(dir, 0), bootCheckpoint(t), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, testConfig(dir))
			head := quoteAll(t, s, reqs[:tc.n])
			s.Abandon()
			tc.crash(t, dir)
			resumeMatches(t, dir, reqs, head, ref)
		})
	}
}

// bootCheckpoint returns the bytes of testConfig's boot checkpoint.
func bootCheckpoint(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	s.Abandon()
	data, err := os.ReadFile(serve.CheckpointPathFor(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServeRotationFailureKeepsServing forces rotation 2's checkpoint job
// to fail — a directory sits at its temp path — and pins the failure
// path: quotes keep succeeding, the failure is counted when rotation 3's
// boundary collects the job, the journal keeps extending checkpoint 1, a
// crash then recovers every acknowledged round bit-identically once the
// fault is gone, and the next rotation succeeds.
func TestServeRotationFailureKeepsServing(t *testing.T) {
	reqs := reqStream(45)
	ref := referenceRun(t, reqs)
	dir := t.TempDir()
	s := mustOpen(t, testConfig(dir))
	blocker := serve.CheckpointPathFor(dir, 2) + ".tmp"
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}

	head := quoteAll(t, s, reqs[:33]) // fails the test on any quote error
	st := s.Stats()
	if st.RotateErrors != 1 || st.LastRotateError == "" {
		t.Fatalf("RotateErrors = %d, LastRotateError = %q; want 1 and set", st.RotateErrors, st.LastRotateError)
	}
	if got := boundOrdinal(t, dir); got != 1 {
		t.Fatalf("journal binds checkpoint %d after the failed rotation, want 1", got)
	}
	mustExist(t, serve.CheckpointPathFor(dir, 1), true)
	mustExist(t, serve.CheckpointPathFor(dir, 2), false)
	s.Abandon()

	// Recovery replays through rotation 2 again; while the fault is
	// still there it refuses loudly instead of skipping the checkpoint.
	if s, err := serve.Open(testConfig(dir)); err == nil {
		s.Close()
		t.Fatal("Open succeeded although rotation 2's checkpoint cannot be written")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, testConfig(dir))
	if got := s.Stats().Rounds; got != len(head) {
		t.Fatalf("reopened at %d rounds, %d were acknowledged", got, len(head))
	}
	tail := quoteAll(t, s, reqs[33:]) // rotation 4's boundary at round 40
	if st := s.Stats(); st.RotateErrors != 0 {
		t.Fatalf("rotation after recovery failed: %+v", st)
	}
	if got := boundOrdinal(t, dir); got != 3 {
		t.Fatalf("journal binds checkpoint %d after rotation 4's boundary, want 3", got)
	}
	for i, p := range append(head, tail...) {
		if p != ref.prices[i] {
			t.Fatalf("price %d = %v, uninterrupted %v", i, p, ref.prices[i])
		}
	}
	if !bytes.Equal(agentBytes(t, s), ref.learner) {
		t.Error("learner state is not bit-identical to the uninterrupted run")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeRotationConcurrentReplica drives the rotation pipeline from
// every side at once under the race detector: concurrent quoters form
// batches that cross many rotation boundaries while a replica refreshes
// from the directory the pipeline writes and Stats is read. The replica
// must never fail a refresh, and a Close during all this must leave a
// state that reopens to every acknowledged round with the same learner.
func TestServeRotationConcurrentReplica(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.BatchMax = 8
	// Nothing is pruned, so no refresh can lose the file it picked: a
	// refresh racing the prune fails by design (it counts the error and
	// keeps serving), which is not what this test pins.
	cfg.KeepCheckpoints = 100
	s := mustOpen(t, cfg)
	r, err := serve.OpenReplica(replicaConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.Refresh(); err != nil {
				t.Errorf("replica refresh: %v", err)
				return
			}
			if _, err := r.Quote(context.Background(), reqStream(1)[0]); err != nil {
				t.Errorf("replica quote: %v", err)
				return
			}
			_ = s.Stats()
		}
	}()
	quoteConcurrently(t, s, reqStream(120))
	close(stop)
	wg.Wait()
	if err := r.Refresh(); err != nil {
		t.Fatalf("final replica refresh: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Snapshots != 11 || st.RefreshErrors != 0 {
		t.Errorf("replica ended at %+v, want snapshot 11 (published at round 120) and no refresh errors", st)
	}
	before := agentBytes(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, testConfig(dir))
	defer s.Close()
	if got := s.Stats().Rounds; got != 120 {
		t.Fatalf("reopened at %d rounds, want all 120 acknowledged ones", got)
	}
	if !bytes.Equal(agentBytes(t, s), before) {
		t.Fatal("reopened learner state differs from the closed server's")
	}
}
