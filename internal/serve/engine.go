package serve

import (
	"fmt"
	"math"

	"vtmig/internal/aotm"
	"vtmig/internal/mathx"
	"vtmig/internal/sim"
	"vtmig/internal/stackelberg"
)

// engine is the pure pricing core of the serving stack: one step is
// (state, orderedBatch) → (state, responses, staged journal entries). It
// owns the reference game and the OnlinePricer and writes durability
// through the store interface; it never touches the network, the queue,
// or the clock. Batching is a pure throughput knob (contract rule 8):
// the per-round prework — request validation, game construction, and the
// shaped-reward oracle solve — is a pure function of the request, and the
// policy/belief/learning core consumes the prepped rounds strictly
// serially in arrival order (rule 5; the belief window chains each
// round's observation through the previous round's outcome, so it can
// never legally batch). Any cut of the same request stream into batches
// therefore yields bit-identical responses, journal bytes, and learner
// weights.
type engine struct {
	game   *stackelberg.Game
	pricer *sim.OnlinePricer
	store  store
	// scratch is the prework's evaluation scratch, reused across rounds
	// and batches; a QuotePrep never aliases it.
	scratch stackelberg.EvalScratch
}

// prepped is one batch slot after the prework: the round's validated game
// and pure pricing prework, or the validation error.
type prepped struct {
	g    *stackelberg.Game
	prep sim.QuotePrep
	err  error
}

// prework fills slots[i] from reqs[i]: it validates and builds each
// round's game and runs the pure pricing prework on it.
func (e *engine) prework(reqs []QuoteRequest, slots []prepped) {
	for i, req := range reqs {
		g, err := buildQuoteGame(e.game, req)
		if err != nil {
			slots[i] = prepped{err: &RequestError{err}}
			continue
		}
		slots[i] = prepped{g: g, prep: e.pricer.PrepQuote(g, &e.scratch)}
	}
}

// processBatch applies one arrival-ordered batch: the prework, then
// the strictly serial core — stage the round's journal entry
// (write-ahead), price it through the learner (which may reach a
// rotation boundary and switch the journal), and record the response —
// and finally one flush that makes the batch's staged entries durable
// before anything is acknowledged. Invalid requests are answered with a
// RequestError and consume neither a sequence number nor learner state.
// If the flush fails, every response whose journal entry is neither
// flushed nor written out by a journal switch is replaced with the flush
// error: those rounds are in the learner but not durable, and
// acknowledging them would break the recovery invariant (the writer
// refuses further work until a restart replays the journal).
func (e *engine) processBatch(reqs []QuoteRequest) []quoteReply {
	slots := make([]prepped, len(reqs))
	e.prework(reqs, slots)
	replies := make([]quoteReply, len(reqs))
	gens := make([]int, len(reqs))
	applied := make([]bool, len(reqs))
	for i, p := range slots {
		if p.err != nil {
			replies[i] = quoteReply{err: p.err}
			continue
		}
		if err := e.store.stage(reqs[i]); err != nil {
			replies[i] = quoteReply{err: err}
			continue
		}
		gens[i] = e.store.generation()
		price := mathx.Clamp(e.pricer.PriceForPrepped(p.g, p.prep), p.g.Cost, p.g.PMax)
		replies[i] = quoteReply{resp: QuoteResponse{Price: price, Round: e.pricer.Rounds(), Updates: e.pricer.Updates()}}
		applied[i] = true
	}
	if err := e.store.flush(); err != nil {
		for i := range replies {
			if applied[i] && gens[i] == e.store.generation() {
				replies[i] = quoteReply{err: err}
			}
		}
	}
	return replies
}

// buildQuoteGame assembles a round's game from a request over the
// reference game — a pure function of (request, reference), which is
// what makes a journaled request replayable.
func buildQuoteGame(ref *stackelberg.Game, req QuoteRequest) (*stackelberg.Game, error) {
	if len(req.VMUs) == 0 {
		return nil, fmt.Errorf("serve: quote request has no VMUs")
	}
	if len(req.VMUs) > maxQuoteVMUs {
		return nil, fmt.Errorf("serve: quote request has %d VMUs, cap is %d", len(req.VMUs), maxQuoteVMUs)
	}
	if bad(req.DistanceM) || req.DistanceM < 0 {
		return nil, fmt.Errorf("serve: quote distance %g must be a non-negative finite number of meters", req.DistanceM)
	}
	if bad(req.AvailableMHz) || req.AvailableMHz < 0 {
		return nil, fmt.Errorf("serve: quote available bandwidth %g must be a non-negative finite number of MHz", req.AvailableMHz)
	}
	ch := ref.Channel
	if req.DistanceM > 0 {
		ch.DistanceM = req.DistanceM
	}
	bmax := ref.BMax
	if req.AvailableMHz > 0 {
		bmax = req.AvailableMHz
	}
	vmus := make([]stackelberg.VMU, len(req.VMUs))
	for i, v := range req.VMUs {
		if bad(v.Alpha) || bad(v.DataMB) {
			return nil, fmt.Errorf("serve: quote VMU %d has non-finite parameters (alpha=%g, data=%g MB)", v.ID, v.Alpha, v.DataMB)
		}
		vmus[i] = stackelberg.VMU{ID: v.ID, Alpha: v.Alpha, DataSize: aotm.FromMB(v.DataMB)}
	}
	return stackelberg.NewGame(vmus, ch, ref.Cost, ref.PMax, bmax)
}

// bad reports a non-finite float.
func bad(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }
