package serve

import (
	"context"
	"net/http"
	"time"

	"vtmig/internal/nn"
)

// Abandon simulates a crash for tests: the intake goroutine stops, but
// none of Close's graceful-shutdown work happens — no journal sync, no
// flush. Every acknowledged quote's entry was flushed before its batch
// was acknowledged (and any still-staged entries were never acked), so
// the on-disk state is exactly what a kill -9 after the last
// acknowledged quote would leave once the persistence goroutine, which
// Abandon waits for, finished its job.
func (s *Server) Abandon() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait()
	close(s.jobs)
	<-s.done
	s.st.stop()
}

// AgentCheckpoint exposes the learner's full training state (weights,
// Adam moments, RNG position) for bit-identity assertions.
func (s *Server) AgentCheckpoint() (*nn.Checkpoint, error) {
	return s.pricer.Agent().Snapshot()
}

// JournalPath exposes the live journal file for corruption-injection
// tests.
func (s *Server) JournalPath() string { return s.st.journal.path }

// BreakJournal closes the live journal's file under its writer, so the
// next flush fails as a failing disk would make it.
func (s *Server) BreakJournal() { s.st.journal.f.Close() }

// CheckpointPathFor exposes the checkpoint naming scheme to tests.
func CheckpointPathFor(dir string, snapshots int) string { return checkpointPath(dir, snapshots) }

// ProcessBatch drives the engine synchronously with one pre-formed
// arrival-ordered batch, bypassing the intake queue. The rule-8 table
// tests pin exact batch cuts with it — live intake cuts depend on queue
// timing, which is precisely what rule 8 promises is irrelevant. Only
// for servers with no concurrent Quote traffic.
func (s *Server) ProcessBatch(reqs []QuoteRequest) ([]QuoteResponse, []error) {
	replies := s.eng.processBatch(reqs)
	resps := make([]QuoteResponse, len(replies))
	errs := make([]error, len(replies))
	for i, r := range replies {
		resps[i], errs[i] = r.resp, r.err
	}
	return resps, errs
}

// SetTestHookPicked makes every later Refresh call hook with the path of
// the checkpoint it picked, before reading that file. Set it only while
// no refresh runs.
func (r *Replica) SetTestHookPicked(hook func(path string)) { r.testHookPicked = hook }

// QuoteHandler is the POST /v1/quote handler over q with its body
// deadline set to bodyTimeout, so a test can trickle a body past it
// quickly.
func QuoteHandler(q interface {
	Quote(context.Context, QuoteRequest) (QuoteResponse, error)
}, bodyTimeout time.Duration) http.Handler {
	return handleQuote(q, bodyTimeout)
}
