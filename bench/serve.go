package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"vtmig/internal/aotm"
	"vtmig/internal/experiments"
	"vtmig/internal/mathx"
	"vtmig/internal/nn"
	"vtmig/internal/serve"
	"vtmig/internal/sim"
	"vtmig/internal/stackelberg"
)

// serveParams sizes a serving workload.
type serveParams struct {
	quotes       int           // quotes in one timed repetition of the stream
	ratioQuotes  int           // quotes in the warm-up repetition, which measures utility_ratio
	writeEvery   int           // every writeEvery-th quote is a primary write, the rest replica reads
	refreshEvery int           // primary writes between replica refreshes; 0 runs no replica
	burst        time.Duration // saturated closed loop after each stream, whose rate is the throughput; 0 runs none
	minReps      int           // timed repetitions run even past the time budget
}

// A repetition sends the stream to a cold primary one quote at a time.
// On serve-write, 1000 writes hold 50 PPO phases and leave ten positions
// beyond the p99; a 250 ms saturated burst then prices about 40 more PPO
// phases. On the read mix, 4000 quotes are 3600 replica reads and 400
// writes; a refresh every 40 writes finds two new checkpoints, since the
// primary rotates one per PPO phase (UpdateEvery 20).
//
// utility_ratio is taken over a longer warm-up stream whose first quotes
// are the timed stream. Over a cold primary's first thousand rounds the
// learner is still moving, and the ratio there spread 0.005 between ten
// seeds, as wide as its bound. Over 16000 writes it spread 0.0008, and
// over 40000 quotes of the read mix (4000 writes) also 0.0008.
var (
	serveWriteParams = serveParams{quotes: 1000, ratioQuotes: 16000, writeEvery: 1, burst: 250 * time.Millisecond, minReps: 3}
	serveMixParams   = serveParams{quotes: 4000, ratioQuotes: 40000, writeEvery: 10, refreshEvery: 40, minReps: 3}
)

// reported says whether the workload's latency metrics cover r: writes on
// serve-write, replica reads on the read mix.
func (p serveParams) reported(r request) bool { return r.Read == (p.writeEvery > 1) }

// keptReps bounds how many repetitions a serving run keeps call times
// for; each position's time is its median over them. They are spread
// evenly over the whole run, so that a slow period of the host moves a
// few of them, not all. A fixed bound keeps the memory the benchmark
// holds, and with it peak_rss_mb, from growing with the number of
// repetitions the host had time for.
const keptReps = 32

// satBatchesInFlight is how many full intake batches the saturated closed
// loop keeps outstanding. The intake drains its queue into batches of at
// most Config.BatchMax, so with two batches' worth of clients one batch
// can form while the previous one is priced. Four leaves headroom for
// clients that are between requests; recorded runs at 2, 4 and 8 batches
// read the same capacity (README.md).
const satBatchesInFlight = 4

// daemonConfig is the primary exactly as vtmig-serve starts it by default.
func daemonConfig(dir string) serve.Config {
	return serve.Config{
		Dir:             dir,
		Game:            stackelberg.DefaultGame(),
		UpdateEvery:     20,
		Seed:            1,
		PPO:             experiments.DefaultDRLConfig().PPO,
		SnapshotEvery:   1,
		KeepCheckpoints: 2,
		BatchMax:        16,
	}
}

// serveChecks collects the correctness problems of every quote and every
// primary a run opened. It is safe for concurrent use.
type serveChecks struct {
	game *stackelberg.Game

	mu         sync.Mutex
	attempted  int
	failed     int
	firstErr   error
	badPrices  int
	badRounds  int // acknowledged write rounds out of sequence, repeated or missing
	mismatched int // repetitions whose prices differ from the warm-up's
	problems   []string
}

// quote records one quote's outcome and reports whether it succeeded.
func (c *serveChecks) quote(resp serve.QuoteResponse, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return false
	}
	if p := resp.Price; math.IsNaN(p) || p < c.game.Cost || p > c.game.PMax {
		c.badPrices++
	}
	return true
}

func (c *serveChecks) problem(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// recovers checks that a fresh serve.Open on a closed primary's state
// directory finds every one of the n acknowledged writes.
func (c *serveChecks) recovers(dir string, n int) {
	reopened, err := serve.Open(daemonConfig(dir))
	if err != nil {
		c.problem("reopening the primary's state dir: %v", err)
		return
	}
	if got := reopened.Stats().Rounds; got != n {
		c.problem("recovered primary has %d rounds, %d were acknowledged", got, n)
	}
	if err := reopened.Close(); err != nil {
		c.problem("closing the recovered primary: %v", err)
	}
}

// report hands the collected outcome to r.
func (c *serveChecks) report(r *report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.attempted, r.failed = c.attempted, c.failed
	r.check(c.failed == 0, "%d quotes failed, first: %v", c.failed, c.firstErr)
	r.check(c.badPrices == 0, "%d prices outside [%g, %g] or not finite", c.badPrices, c.game.Cost, c.game.PMax)
	r.check(c.badRounds == 0, "%d acknowledged write rounds out of sequence, repeated or missing", c.badRounds)
	r.check(c.mismatched == 0, "%d repetitions posted prices that differ from the warm-up repetition's", c.mismatched)
	for _, p := range c.problems {
		r.check(false, "%s", p)
	}
}

// seqRep is one repetition of the stream against a cold primary.
type seqRep struct {
	setup     time.Duration // serve.Open, plus serve.OpenReplica on the read mix
	quotes    sample        // each quote's call time, in stream order
	refreshes sample        // each Replica.Refresh call, in order
	mismatch  bool          // a price differed from the reference's
	stats     serve.Stats   // the primary's, before Close
	repStats  serve.ReplicaStats
	ckBytes   float64 // the newest checkpoint's size, before Close
	jBytes    float64 // journal bytes per entry past the header, before Close
	rate      float64 // the saturated burst's quotes per second
	// Only the warm-up repetition, which has no reference, keeps these.
	prices []float64 // each quote's posted price, in stream order
	lags   []float64 // per read: the primary's rounds minus the replica's
}

// runSeqRep opens a cold primary (and, on the read mix, a replica over
// its state directory) in dir, sends it the stream one quote at a time
// and refreshes the replica after every p.refreshEvery-th write, timing
// each call; then, on serve-write, it saturates the primary for p.burst.
// The stream is deterministic and so is every response (contract rule
// 8), so quote i does the same work in every repetition: with ref nil the
// repetition records its prices, and otherwise checks them against the
// first prices of ref bit for bit.
func runSeqRep(p serveParams, dir string, stream []request, tr *tracer, chk *serveChecks, ref []float64) (seqRep, error) {
	rep := seqRep{quotes: make(sample, len(stream))}
	if ref == nil {
		rep.prices = make([]float64, len(stream))
	}
	if err := os.RemoveAll(dir); err != nil {
		return rep, err
	}
	cfg := daemonConfig(dir)
	t0 := time.Now()
	srv, err := serve.Open(cfg)
	if err != nil {
		return rep, err
	}
	var rp *serve.Replica
	if p.refreshEvery > 0 {
		rp, err = serve.OpenReplica(serve.ReplicaConfig{Dir: dir, Game: stackelberg.DefaultGame(), PPO: experiments.DefaultDRLConfig().PPO})
		if err != nil {
			srv.Close()
			return rep, err
		}
	}
	rep.setup = time.Since(t0)

	ctx := context.Background()
	writes := 0
	for i := range stream {
		r := &stream[i]
		var resp serve.QuoteResponse
		if r.Read {
			id := tr.open("replica.Quote", -1, i)
			t := time.Now()
			resp, err = rp.Quote(ctx, r.Req)
			rep.quotes[i] = time.Since(t)
			tr.close(id)
		} else {
			id := tr.open("serve.Quote", -1, i)
			t := time.Now()
			resp, err = srv.Quote(ctx, r.Req)
			rep.quotes[i] = time.Since(t)
			tr.close(id)
		}
		if !chk.quote(resp, err) {
			continue
		}
		if ref == nil {
			rep.prices[i] = resp.Price
		} else if math.Float64bits(resp.Price) != math.Float64bits(ref[i]) {
			rep.mismatch = true
		}
		if r.Read {
			if ref == nil {
				rep.lags = append(rep.lags, float64(writes-resp.Round))
			}
			continue
		}
		writes++
		if resp.Round != writes {
			chk.mu.Lock()
			chk.badRounds++
			chk.mu.Unlock()
		}
		if rp != nil && writes%p.refreshEvery == 0 {
			id := tr.open("replica.Refresh", -1, i)
			t := time.Now()
			err := rp.Refresh()
			rep.refreshes = append(rep.refreshes, time.Since(t))
			tr.close(id)
			if err != nil {
				chk.problem("replica refresh after %d writes: %v", writes, err)
			}
		}
	}

	rep.stats = srv.Stats()
	rep.ckBytes, rep.jBytes, err = stateSizes(dir, rep.stats.JournalEntries)
	if err == nil && p.burst > 0 {
		var n int
		rep.rate, n = saturate(srv, cfg.BatchMax, stream, writes, p.burst, chk)
		writes += n
	}
	if rp != nil {
		rep.repStats = rp.Stats()
		rp.Close()
	}
	if cerr := srv.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing primary: %w", cerr)
	}
	if err != nil {
		return rep, err
	}
	chk.recovers(dir, writes)
	return rep, nil
}

// saturate runs a closed loop of satBatchesInFlight full intake batches
// of clients against srv for d, cycling through reqs, and returns the
// quotes it completed per second and how many. It checks that they were
// acknowledged with exactly the rounds after the first `after`.
func saturate(srv *serve.Server, batchMax int, reqs []request, after int, d time.Duration, chk *serveChecks) (float64, int) {
	var (
		mu     sync.Mutex
		rounds []int
	)
	start := time.Now()
	closedLoop(satBatchesInFlight*batchMax, start.Add(d), func(i int) {
		resp, err := srv.Quote(context.Background(), reqs[i%len(reqs)].Req)
		if chk.quote(resp, err) {
			mu.Lock()
			rounds = append(rounds, resp.Round)
			mu.Unlock()
		}
	})
	elapsed := time.Since(start)
	sort.Ints(rounds)
	bad := 0
	for i, round := range rounds {
		if round != after+i+1 {
			bad++
		}
	}
	chk.mu.Lock()
	chk.badRounds += bad
	chk.mu.Unlock()
	return float64(len(rounds)) / elapsed.Seconds(), len(rounds)
}

// spread keeps at most limit (an even number) of the items added to it,
// spread evenly over the sequence: it keeps every item until limit are
// kept, then drops every other one and from then on keeps only every
// second item, then every fourth, and so on.
type spread[T any] struct {
	limit  int
	stride int
	seen   int
	kept   []T
}

func (s *spread[T]) add(x T) {
	k := s.seen
	s.seen++
	s.stride = max(s.stride, 1)
	if k%s.stride != 0 {
		return
	}
	if len(s.kept) == s.limit {
		for i := range s.limit / 2 {
			s.kept[i] = s.kept[2*i]
		}
		clear(s.kept[s.limit/2:])
		s.kept = s.kept[:s.limit/2]
		s.stride *= 2
		if k%s.stride != 0 {
			return
		}
	}
	s.kept = append(s.kept, x)
}

// seqRun is what a run's repetitions measured.
type seqRun struct {
	kept   []seqRep  // at most keptReps repetitions, spread evenly over the run
	setups []float64 // every repetition's set-up time, s
	rates  []float64 // every repetition's saturated rate, quotes/s
}

// seqReps runs repetitions until d has passed (and at least p.minReps),
// checking each one's prices against the reference's.
func seqReps(p serveParams, dir string, stream []request, d time.Duration, tr *tracer, chk *serveChecks, ref []float64) (seqRun, error) {
	var run seqRun
	kept := spread[seqRep]{limit: keptReps}
	start := time.Now()
	for k := 0; k < p.minReps || time.Since(start) < d; k++ {
		rep, err := runSeqRep(p, dir, stream, tr, chk, ref)
		if err != nil {
			return run, err
		}
		if rep.mismatch {
			chk.mu.Lock()
			chk.mismatched++
			chk.mu.Unlock()
		}
		run.setups = append(run.setups, rep.setup.Seconds())
		run.rates = append(run.rates, rep.rate)
		kept.add(rep)
	}
	run.kept = kept.kept
	return run, nil
}

// positions returns, in stream order, each quote's median call time over
// the repetitions, in ms, and each refresh's.
func positions(reps []seqRep) (quotes, refreshes []float64) {
	qs := make([]sample, len(reps))
	rs := make([]sample, len(reps))
	for k, rep := range reps {
		qs[k], rs[k] = rep.quotes, rep.refreshes
	}
	quotes = byPosition(qs, time.Millisecond)
	if len(rs[0]) > 0 {
		refreshes = byPosition(rs, time.Millisecond)
	}
	return quotes, refreshes
}

// reportedOps returns the call times of the quotes the workload's
// latency metrics cover, every repetition's in one sample.
func reportedOps(p serveParams, stream []request, reps []seqRep) sample {
	var out sample
	for _, rep := range reps {
		for i, r := range stream {
			if p.reported(r) {
				out = append(out, rep.quotes[i])
			}
		}
	}
	return out
}

func runServe(e *env, p serveParams) error {
	r := e.rep
	dir := filepath.Join(e.work, "state", fmt.Sprintf("%s-seed%d", r.workload, e.seed))
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintln(r.out, hostLine(filepath.Dir(dir)))
	long := requestStream(e.seed*8+1, max(p.ratioQuotes, p.quotes), p.writeEvery)
	stream := long[:p.quotes]
	chk := &serveChecks{game: stackelberg.DefaultGame()}

	// The warm-up repetition runs the longer stream. It fills caches, pins
	// the prices every timed repetition must repeat on its prefix, and
	// measures utility_ratio after the fact.
	ref, err := runSeqRep(p, dir, long, nil, chk, nil)
	if err != nil {
		return err
	}
	var all []quoted
	for i := range long {
		all = append(all, quoted{req: &long[i], price: ref.prices[i]})
	}
	ratio, n := quoteUtilityRatio(all)
	r.set("utility_ratio", ratio, n)

	if !e.traced {
		run, err := seqReps(p, dir, stream, e.dur, nil, chk, ref.prices)
		if err != nil {
			return err
		}
		quotes, refreshes := positions(run.kept)
		var ops []float64
		for i, r := range stream {
			if p.reported(r) {
				ops = append(ops, quotes[i])
			}
		}
		sorted := sortedCopy(ops)
		r.set("setup_s", median(run.setups), len(run.setups))
		r.set("p50_ms", percentile(sorted, 0.5), len(ops))
		r.set("tail_ms", tail(sorted), len(ops))
		if p.burst > 0 {
			r.set("throughput_per_s", median(run.rates), len(run.rates))
		} else {
			r.set("throughput_per_s", float64(len(quotes))/((sum(quotes)+sum(refreshes))/1e3), len(run.kept))
		}
		r.notef("%d repetitions of %d quotes, %d of them kept; median repetition %.1f ms, of which %.1f ms refreshes",
			len(run.setups), len(stream), len(run.kept), sum(quotes)+sum(refreshes), sum(refreshes))
		chk.report(r)
		return nil
	}

	base, err := seqReps(p, dir, stream, e.dur/2, nil, chk, ref.prices)
	if err != nil {
		return err
	}
	tr := newTracer()
	run, err := seqReps(p, dir, stream, e.dur/2, tr, chk, ref.prices)
	if err != nil {
		return err
	}
	traced := run.kept
	chk.report(r)
	lat, baseLat := reportedOps(p, stream, traced), reportedOps(p, stream, base.kept)
	r.set("trace.ops", float64(len(lat)), len(lat))
	r.set("trace.op_mean_us", lat.mean(time.Microsecond), len(lat))
	r.set("trace.op_p99_us", lat.pct(0.99, time.Microsecond), len(lat))
	r.set("trace.overhead_ratio", lat.mean(time.Microsecond)/baseLat.mean(time.Microsecond), len(lat))

	// Counts and sizes are per repetition, taken before any burst; every
	// repetition reads the same.
	last := traced[len(traced)-1]
	r.set("serve.rounds", float64(last.stats.Rounds), 1)
	r.set("serve.updates", float64(last.stats.Updates), 1)
	r.set("serve.rotations", float64(last.stats.Snapshots), 1)
	r.set("serve.rotate_errors", float64(last.stats.RotateErrors), 1)
	r.set("serve.checkpoint_bytes", last.ckBytes, 1)
	r.set("serve.journal_bytes_per_round", last.jBytes, last.stats.JournalEntries)
	if p.refreshEvery > 0 {
		quote, refresh := tr.stats("replica.Quote"), tr.stats("replica.Refresh")
		r.set("replica.quote_per_s", quote.perSecond(), quote.n)
		r.set("replica.refresh_per_s", refresh.perSecond(), refresh.n)
		r.set("replica.refreshes", float64(last.repStats.Refreshes), 1)
		r.set("replica.lag_rounds", mean(ref.lags), len(ref.lags))
	}

	var writes []quoted
	var writeCall sample
	for i := range stream {
		if !stream[i].Read {
			writes = append(writes, quoted{req: &stream[i], price: ref.prices[i]})
		}
	}
	for _, rep := range traced {
		for i, r := range stream {
			if !r.Read {
				writeCall = append(writeCall, rep.quotes[i])
			}
		}
	}
	replayDir := dir + "-replay"
	defer os.RemoveAll(replayDir)
	if err := replayLayers(r, tr, writes, replayDir, writeCall); err != nil {
		return err
	}
	return writeSpans(e, tr)
}

// quoted is one acknowledged quote: the request it answered and the
// posted price.
type quoted struct {
	req   *request
	price float64
}

// quoteGame builds a round's game from a request the way the serving
// engine does: the reference game with the request's followers, distance
// and bandwidth pool.
func quoteGame(ref *stackelberg.Game, req serve.QuoteRequest) (*stackelberg.Game, error) {
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
		vmus[i] = stackelberg.VMU{ID: v.ID, Alpha: v.Alpha, DataSize: aotm.FromMB(v.DataMB)}
	}
	return stackelberg.NewGame(vmus, ch, ref.Cost, ref.PMax, bmax)
}

// quoteUtilityRatio is the mean, over acknowledged quotes, of the MSP's
// utility at the posted price divided by the round's Stackelberg
// equilibrium utility. It runs after the quotes were timed, over the
// warm-up repetition's quotes: the same requests and prices at every run
// of a seed.
func quoteUtilityRatio(acked []quoted) (float64, int) {
	ref := stackelberg.DefaultGame()
	var ratios []float64
	for _, q := range acked {
		g, err := quoteGame(ref, q.req.Req)
		if err != nil {
			continue
		}
		if se := g.Solve().MSPUtility; se > 0 {
			ratios = append(ratios, g.Evaluate(q.price).MSPUtility/se)
		}
	}
	return mean(ratios), len(ratios)
}

// stateSizes returns the newest checkpoint's size and the live journal's
// bytes per entry (header excluded; 0 right after a rotation).
func stateSizes(dir string, entries int) (float64, float64, error) {
	cks, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.bin"))
	if err != nil || len(cks) == 0 {
		return 0, 0, fmt.Errorf("no checkpoint in %s: %v", dir, err)
	}
	sort.Strings(cks)
	fi, err := os.Stat(cks[len(cks)-1])
	if err != nil {
		return 0, 0, err
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return 0, 0, err
	}
	perRound := 0.0
	if header, _, ok := strings.Cut(string(data), "\n"); ok && entries > 0 {
		perRound = float64(len(data)-len(header)-1) / float64(entries)
	}
	return float64(fi.Size()), perRound, nil
}

// replayLayers is the serving layer replay: it feeds the acknowledged
// writes, in round order, through a standalone sim.OnlinePricer with the
// primary's configuration and times each layer call the engine makes —
// game construction, the pure prework, and the serial pricing core,
// split into rounds with and without an optimization phase. The snapshot
// hook times the checkpoint encode and a durable file commit (temp file,
// fsync, rename), the work a rotation adds. Every replayed price must
// equal the served one bit for bit (contract rule 8).
func replayLayers(r *report, tr *tracer, writes []quoted, dir string, writeCall sample) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg := daemonConfig(dir)
	var (
		parent, op int
		hookErr    error
	)
	pricer, err := sim.NewOnlinePricer(sim.OnlinePricerConfig{
		Game:          cfg.Game,
		UpdateEvery:   cfg.UpdateEvery,
		Seed:          cfg.Seed,
		PPO:           cfg.PPO,
		SnapshotEvery: cfg.SnapshotEvery,
		OnSnapshot: func(ck *nn.Checkpoint) {
			t0 := time.Now()
			var buf bytes.Buffer
			if err := ck.SaveBinary(&buf); err != nil {
				hookErr = err
				return
			}
			t1 := time.Now()
			tr.add("nn.SaveBinary", parent, op, t0, t1)
			if err := commitFile(filepath.Join(dir, "checkpoint.bin"), buf.Bytes()); err != nil {
				hookErr = err
				return
			}
			tr.add("fs.commit", parent, op, t1, time.Now())
		},
	})
	if err != nil {
		return err
	}
	var scratch stackelberg.EvalScratch
	mismatches := 0
	for i, w := range writes {
		op = -(i + 1)
		round := tr.open("replay.round", -1, op)
		t0 := time.Now()
		g, err := quoteGame(cfg.Game, w.req.Req)
		if err != nil {
			return err
		}
		t1 := time.Now()
		tr.add("stackelberg.NewGame", round, op, t0, t1)
		prep := pricer.PrepQuote(g, &scratch)
		tr.add("sim.PrepQuote", round, op, t1, time.Now())
		updates := pricer.Updates()
		parent = tr.open("sim.PriceForPrepped", round, op)
		price := mathx.Clamp(pricer.PriceForPrepped(g, prep), g.Cost, g.PMax)
		name := "sim.price_round"
		if pricer.Updates() != updates {
			name = "sim.update_round"
		}
		tr.closeAs(parent, name)
		tr.close(round)
		if math.Float64bits(price) != math.Float64bits(w.price) {
			mismatches++
		}
	}
	if hookErr != nil {
		return fmt.Errorf("replay snapshot hook: %w", hookErr)
	}
	r.check(mismatches == 0, "layer replay: %d of %d replayed prices differ from the served ones", mismatches, len(writes))

	newGame, prep := tr.stats("stackelberg.NewGame"), tr.stats("sim.PrepQuote")
	price, update := tr.stats("sim.price_round"), tr.stats("sim.update_round")
	encode, commit := tr.stats("nn.SaveBinary"), tr.stats("fs.commit")
	r.set("stackelberg.new_game_per_s", newGame.perSecond(), newGame.n)
	r.set("sim.prep_quote_per_s", prep.perSecond(), prep.n)
	r.set("sim.price_round_per_s", price.perSecond(), price.n)
	r.set("sim.update_round_per_s", update.perSecond(), update.n)
	r.set("nn.checkpoint_encode_per_s", encode.perSecond(), encode.n)
	r.set("fs.checkpoint_commit_per_s", commit.perSecond(), commit.n)
	rounds := tr.stats("replay.round")
	compute := rounds.busy.Seconds() / float64(max(rounds.n, 1))
	quote := writeCall.mean(time.Second)
	r.set("serve.wait_share", (quote-compute)/quote, len(writeCall))
	r.notef("replay: %d rounds, %.1f µs compute per round; %d update rounds at %.3f ms, encode %.1f µs, commit %.3f ms; mean primary Quote call %.1f µs",
		rounds.n, compute*1e6, update.n, update.durs.mean(time.Millisecond), encode.durs.mean(time.Microsecond),
		commit.durs.mean(time.Millisecond), quote*1e6)
	return nil
}

// commitFile writes data to path durably: temp file, fsync, rename.
func commitFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
