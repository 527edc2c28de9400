package serve

import "context"

// The intake layer is the only place concurrency meets the engine: it
// assigns arrival order (the order jobs leave the queue) and forms
// batches at the natural queue boundary — whatever is already waiting
// when the previous batch finishes, capped at Config.BatchMax, never
// waiting for more traffic. Batch boundaries carry no meaning (contract
// rule 8): the engine makes any cut of the stream bit-identical to
// serial intake, so batching only amortizes journal writes under load
// while an idle server still answers every quote alone.

type quoteJob struct {
	req   QuoteRequest
	reply chan quoteReply
}

type quoteReply struct {
	resp QuoteResponse
	err  error
}

// intake is the single serializing consumer: it drains the queue into
// arrival-ordered batches and acknowledges each batch only after the
// engine has flushed its journal entries (acknowledged ⇒ durable).
func (s *Server) intake() {
	defer close(s.done)
	batch := make([]quoteJob, 0, s.cfg.BatchMax)
	reqs := make([]QuoteRequest, 0, s.cfg.BatchMax)
	for job := range s.jobs {
		batch = append(batch[:0], job)
	drain:
		for len(batch) < s.cfg.BatchMax {
			select {
			case j, ok := <-s.jobs:
				if !ok {
					break drain
				}
				batch = append(batch, j)
			default:
				break drain
			}
		}
		reqs = reqs[:0]
		for _, j := range batch {
			reqs = append(reqs, j.req)
		}
		replies := s.eng.processBatch(reqs)
		s.syncStats()
		for i, j := range batch {
			j.reply <- replies[i]
		}
	}
}

// Quote prices one round. It blocks until the intake goroutine reaches
// the request (or ctx is done; a request already enqueued is still
// journaled and learned from even if the caller gives up — the round
// entered the stream the moment it was accepted). A caller whose ctx is
// already done is never enqueued.
func (s *Server) Quote(ctx context.Context, req QuoteRequest) (QuoteResponse, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return QuoteResponse{}, ErrClosed
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	// Checked before the send below: select picks uniformly among ready
	// cases, so with room in the queue a canceled caller would otherwise
	// be enqueued half the time.
	if err := ctx.Err(); err != nil {
		return QuoteResponse{}, err
	}
	job := quoteJob{req: req, reply: make(chan quoteReply, 1)}
	select {
	case s.jobs <- job:
	case <-ctx.Done():
		return QuoteResponse{}, ctx.Err()
	}
	select {
	case r := <-job.reply:
		return r.resp, r.err
	case <-ctx.Done():
		return QuoteResponse{}, ctx.Err()
	}
}
