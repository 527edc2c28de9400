package serve_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"vtmig/internal/serve"
)

// quoteConcurrently pushes reqs through several goroutines so the
// intake loop actually forms multi-quote batches (arrival order is
// whatever the queue sees — rule 8 makes the cut irrelevant, not the
// order, so assertions compare one run against its own recovery).
func quoteConcurrently(t *testing.T, s *serve.Server, reqs []serve.QuoteRequest) {
	t.Helper()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += workers {
				if _, err := s.Quote(context.Background(), reqs[i]); err != nil {
					errs <- fmt.Errorf("quote %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// batchRun is one cell of the rule-8 table: every response (or error
// string) in stream order, the final on-disk journal bytes, the final
// learner checkpoint (weights, Adam moments, RNG position), and the state
// directory after every batch, keyed by the requests processed so far.
type batchRun struct {
	resps   []string
	journal []byte
	learner []byte
	disk    map[int]string
}

// diskState describes what a reader of dir can see: the live journal's
// bytes and each published checkpoint's name and bytes. Temp files are
// left out — when the persistence goroutine writes them is timing, and
// no reader opens them.
func diskState(t *testing.T, dir string) string {
	t.Helper()
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	state := fmt.Sprintf("journal %x", sha256.Sum256(journal))
	cks, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(cks)
	for _, ck := range cks {
		data, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		state += fmt.Sprintf("\n%s %x", filepath.Base(ck), sha256.Sum256(data))
	}
	return state
}

// runBatchTable runs the fixed 200-request stream (with a few invalid
// requests mixed in at fixed positions) through one server, cut into
// batches of size batch.
func runBatchTable(t *testing.T, batch int) batchRun {
	t.Helper()
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.BatchMax = batch
	s := mustOpen(t, cfg)

	reqs := reqStream(200)
	for i := range reqs {
		if i%37 == 36 {
			reqs[i] = serve.QuoteRequest{} // invalid: no VMUs
		}
	}
	run := batchRun{disk: map[int]string{}}
	for i := 0; i < len(reqs); i += batch {
		end := i + batch
		if end > len(reqs) {
			end = len(reqs)
		}
		resps, errs := s.ProcessBatch(reqs[i:end])
		for j := range resps {
			if errs[j] != nil {
				run.resps = append(run.resps, "err: "+errs[j].Error())
				continue
			}
			run.resps = append(run.resps, fmt.Sprintf("price=%016x round=%d updates=%d",
				math.Float64bits(resps[j].Price), resps[j].Round, resps[j].Updates))
		}
		run.disk[end] = diskState(t, dir)
	}
	ck, err := s.AgentCheckpoint()
	if err != nil {
		t.Fatalf("learner checkpoint: %v", err)
	}
	if run.learner, err = ck.AppendBinary(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if run.journal, err = os.ReadFile(filepath.Join(dir, "journal.jsonl")); err != nil {
		t.Fatal(err)
	}
	return run
}

// TestBatchIntakeBitIdentityTable pins contract rule 8 end to end: every
// batch size produces responses, final journal bytes, and final learner
// weights bit-identical to strictly serial intake — and after every
// batch, the same journal bytes and the same published checkpoints as
// serial intake after the same round, so neither the journal switch nor
// a checkpoint's publication depends on where batches are cut or on when
// the persistence goroutine finishes. The serve-smoke target runs it
// under -race.
func TestBatchIntakeBitIdentityTable(t *testing.T) {
	ref := runBatchTable(t, 1)
	if len(ref.resps) != 200 {
		t.Fatalf("reference run answered %d of 200 requests", len(ref.resps))
	}
	for _, batch := range []int{4, 16} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			got := runBatchTable(t, batch)
			for i := range ref.resps {
				if got.resps[i] != ref.resps[i] {
					t.Fatalf("response %d diverged from serial intake:\n  serial:  %s\n  batched: %s", i, ref.resps[i], got.resps[i])
				}
			}
			if string(got.journal) != string(ref.journal) {
				t.Error("journal bytes diverged from serial intake")
			}
			if string(got.learner) != string(ref.learner) {
				t.Error("final learner state diverged from serial intake")
			}
			for n, state := range got.disk {
				if state != ref.disk[n] {
					t.Fatalf("state dir after %d requests diverged from serial intake:\n  serial:\n%s\n  batched:\n%s", n, ref.disk[n], state)
				}
			}
		})
	}
}

// TestBatchedQuoteCrashRecovery reruns the crash-recovery bit-identity
// check through the live batched intake path: concurrent quoters force
// multi-quote batches, the server is abandoned mid-stream (no flush, no
// sync), and the recovered server must pick up with the exact learner
// state — acknowledged ⇒ durable even when acks are batched.
func TestBatchedQuoteCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.BatchMax = 8
	s := mustOpen(t, cfg)
	quoteConcurrently(t, s, reqStream(120))
	before, err := s.AgentCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	s.Abandon()

	r := mustOpen(t, testConfig(dir))
	defer r.Close()
	if got := r.Stats().Rounds; got != 120 {
		t.Fatalf("recovered %d rounds, want all 120 acknowledged ones", got)
	}
	after, err := r.AgentCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	b1, err := before.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := after.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("recovered learner state differs from the abandoned server's")
	}
}

// TestBatchFlushFailureRepliesPerRound breaks the journal's file under a
// server whose engine has just served a full batch, then sends a batch of
// one valid and one invalid request. The flush fails: the valid round,
// in the learner but not durable, must get the flush error, and the
// invalid one its RequestError. The per-round buffers the engine reuses
// carry nothing from the previous batch into this one.
func TestBatchFlushFailureRepliesPerRound(t *testing.T) {
	s := mustOpen(t, testConfig(t.TempDir()))
	defer s.Abandon()
	reqs := reqStream(3)
	if _, errs := s.ProcessBatch(reqs[:2]); errs[0] != nil || errs[1] != nil {
		t.Fatalf("first batch: %v", errs)
	}
	s.BreakJournal()
	_, errs := s.ProcessBatch([]serve.QuoteRequest{reqs[2], {}})
	var reqErr *serve.RequestError
	if errs[0] == nil || errors.As(errs[0], &reqErr) {
		t.Fatalf("valid round whose flush failed: error %v, want the flush error", errs[0])
	}
	if !errors.As(errs[1], &reqErr) {
		t.Fatalf("invalid round in the same batch: error %v, want its RequestError", errs[1])
	}
}
