// Package serve puts the simulator's online continual-learning pricer
// (sim.OnlinePricer) behind a long-running request/response front end
// with audit-grade durability, layered so that scale-out never touches
// the determinism contract:
//
//   - The intake layer (intake.go) assigns arrival order and forms
//     batches at the natural queue boundary.
//   - The engine (engine.go) is the pure core — (state, orderedBatch) →
//     (state, responses, journal entries). It runs the pure per-round
//     prework and the policy/belief/learning core strictly serially in
//     arrival order, so any batch size is bit-identical to one-at-a-time
//     (contract rule 8, with rule 5 intact at the process boundary).
//   - The persistence layer (persist.go, journal.go, checkpoint.go)
//     stages write-ahead journal entries, flushes them before anything
//     is acknowledged, and rotates full resume checkpoints at
//     optimization-phase boundaries: a persistence goroutine writes
//     checkpoint k off the serial path, and rotation k+1's boundary
//     publishes it and switches the journal to extend it.
//   - Read replicas (replica.go) freeze a published checkpoint into a
//     learner-free pricer and serve quote-only traffic at arbitrary
//     fan-out, answering bit-identically to the primary's price at the
//     same snapshot ordinal.
//
// A crashed or restarted server rebuilds its exact serving state — same
// quotes, same weights, bit for bit — by restoring the checkpoint the
// journal binds and replaying the journal in order (rule 6's strict restore: a journal
// whose checkpoint is missing, mismatched, or corrupt refuses loudly
// instead of cold-starting).
package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"vtmig/internal/nn"
	"vtmig/internal/rl"
	"vtmig/internal/sim"
	"vtmig/internal/stackelberg"
)

// maxQuoteVMUs caps one round's follower count against hostile requests;
// it matches the binary checkpoint reader's hostile-input posture rather
// than any model limit.
const maxQuoteVMUs = 4096

// ErrClosed is returned by Quote after Close has begun.
var ErrClosed = errors.New("serve: server is shut down")

// RequestError marks a quote rejected for what it asked, not for server
// state — HTTP handlers map it to a 400 instead of a 503.
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// QuoteVMU describes one follower of a quoted round.
type QuoteVMU struct {
	// ID identifies the VMU within the round (unique per request).
	ID int `json:"id"`
	// Alpha is the immersion coefficient α_n (paper range [5, 20]).
	Alpha float64 `json:"alpha"`
	// DataMB is the twin's total migrated data in megabytes.
	DataMB float64 `json:"data_mb"`
}

// QuoteRequest describes one pricing round: the followers about to
// migrate, and optionally the round's channel distance and remaining
// bandwidth pool. Cost, PMax, and the channel template come from the
// server's reference game — the request carries only what varies per
// round, exactly like the simulator's buildGame.
type QuoteRequest struct {
	// VMUs are the round's followers (at least one).
	VMUs []QuoteVMU `json:"vmus"`
	// DistanceM overrides the reference channel's source–destination RSU
	// distance in meters (0 keeps the reference distance).
	DistanceM float64 `json:"distance_m,omitempty"`
	// AvailableMHz is the bandwidth pool remaining for this round in MHz
	// (0 uses the reference game's BMax).
	AvailableMHz float64 `json:"available_mhz,omitempty"`
}

// QuoteResponse is the answer to one quote.
type QuoteResponse struct {
	// Price is the posted unit bandwidth price, clamped to the round's
	// [Cost, PMax].
	Price float64 `json:"price"`
	// Round is the server's global intake ordinal: how many rounds the
	// learner has been fed, this one included. It is the audit handle —
	// the round survives in the journal (and eventually a checkpoint)
	// under this position. A read replica reports the frozen state's
	// round count instead: how many rounds the answer has seen.
	Round int `json:"round"`
	// Updates is the number of optimization phases completed so far.
	Updates int `json:"updates"`
}

// Stats is a point-in-time view of the serving state.
type Stats struct {
	// Rounds, Updates, and Snapshots mirror the pricer's counters.
	Rounds    int `json:"rounds"`
	Updates   int `json:"updates"`
	Snapshots int `json:"snapshots"`
	// Pending counts rounds staged since the last optimization phase
	// (they live in the journal, not in any checkpoint).
	Pending int `json:"pending"`
	// BestUtility is the best live leader utility observed, when BestSet
	// (JSON cannot carry the -Inf that means "nothing yet").
	BestUtility float64 `json:"best_utility"`
	BestSet     bool    `json:"best_set"`
	// JournalEntries counts entries in the live journal: the rounds past
	// the checkpoint it binds, which trails the latest rotation by one.
	JournalEntries int `json:"journal_entries"`
	// ReplayedRounds counts journal entries replayed at the last Open;
	// TornDropped counts torn trailing lines dropped there.
	ReplayedRounds int `json:"replayed_rounds"`
	TornDropped    int `json:"torn_dropped"`
	// RotateErrors counts failed checkpoint rotations, each counted at
	// the rotation boundary after the one that took the checkpoint (the
	// journal then keeps extending the checkpoint it binds, so the state
	// stays recoverable); LastRotateError is the most recent failure.
	RotateErrors    int    `json:"rotate_errors"`
	LastRotateError string `json:"last_rotate_error,omitempty"`
}

// Config parameterizes a Server.
type Config struct {
	// Dir is the durable state directory: the journal and rotated
	// checkpoints live here. Required.
	Dir string
	// Game is the reference game fixing the pricing interface (observation
	// layout, [Cost, PMax] interval, channel template). Nil selects
	// stackelberg.DefaultGame. It must be identical across restarts of the
	// same state directory (fingerprinted in the journal header).
	Game *stackelberg.Game
	// HistoryLen, UpdateEvery, Seed, PPO, and Agent configure the pricer
	// exactly as in sim.OnlinePricerConfig. On a resume, zero-valued
	// HistoryLen/UpdateEvery adopt the checkpointed values and Agent must
	// be nil (the learner is rebuilt from the checkpoint).
	HistoryLen  int
	UpdateEvery int
	Seed        int64
	PPO         rl.PPOConfig
	Agent       *rl.PPO
	// SnapshotEvery is the checkpoint-rotation cadence in optimization
	// phases. Zero selects 1 — rotate at every phase boundary, keeping the
	// journal between UpdateEvery and 2·UpdateEvery rounds long (it
	// extends the checkpoint one rotation back).
	SnapshotEvery int
	// KeepCheckpoints is how many published checkpoints to retain,
	// counting the one the journal binds to, which is never pruned: 1
	// keeps only that bound checkpoint, and each more keeps one older
	// checkpoint for the audit trail. Zero selects 2.
	KeepCheckpoints int
	// BatchMax caps how many queued quotes one intake batch may coalesce.
	// Batching is a pure throughput knob — any value yields bit-identical
	// responses, journal bytes, and learner weights (contract rule 8) —
	// so this only bounds per-batch latency and memory. Zero selects 16;
	// 1 disables batching.
	BatchMax int
}

// withDefaults resolves the zero-value conveniences.
func (c Config) withDefaults() Config {
	if c.Game == nil {
		c.Game = stackelberg.DefaultGame()
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 1
	}
	if c.KeepCheckpoints == 0 {
		c.KeepCheckpoints = 2
	}
	if c.BatchMax == 0 {
		c.BatchMax = 16
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Dir == "" {
		return fmt.Errorf("serve: Config.Dir is required")
	}
	if c.SnapshotEvery < 0 || c.KeepCheckpoints < 0 || c.BatchMax < 0 {
		return fmt.Errorf("serve: negative SnapshotEvery/KeepCheckpoints/BatchMax")
	}
	return nil
}

// Server is the journaled online-pricing daemon: the intake, engine, and
// persistence layers assembled over one state directory (see the package
// comment for the layering). Construct with Open, serve quotes with
// Quote (or the HTTP front end from Handler), and shut down with Close.
// All methods are safe for concurrent use; the engine and its pricer are
// only ever touched by the intake goroutine.
type Server struct {
	cfg    Config
	game   *stackelberg.Game
	pricer *sim.OnlinePricer
	st     *diskStore
	eng    *engine

	jobs     chan quoteJob
	done     chan struct{}
	inflight sync.WaitGroup

	mu     sync.Mutex
	closed bool
	stats  Stats

	// replaying and rotateErr belong to the recovery path: rotations
	// re-reached during replay must not prune, and their failures abort
	// the recovery instead of degrading it.
	replaying bool
	rotateErr error
}

// Open builds the serving state from cfg.Dir and starts the intake
// goroutine. A directory without a journal cold-starts (or warm-starts
// from cfg.Agent) and immediately persists a boot checkpoint, so from the
// first request on, the state is always recoverable as checkpoint +
// journal. A directory with a journal recovers: the bound checkpoint is
// restored strictly and the journal replays through the identical intake
// path, leaving the server bit-identical to the one that crashed.
func Open(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.Game.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating state dir: %w", err)
	}
	s := &Server{cfg: cfg, game: cfg.Game, done: make(chan struct{})}
	jpath := filepath.Join(cfg.Dir, journalName)
	if _, err := os.Stat(jpath); err == nil {
		if err := s.recoverState(jpath); err != nil {
			return nil, err
		}
	} else if errors.Is(err, fs.ErrNotExist) {
		if err := s.boot(jpath); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("serve: probing journal: %w", err)
	}
	s.jobs = make(chan quoteJob, queueDepth)
	go s.intake()
	return s, nil
}

// newStore assembles the persistence layer over an opened journal binding
// checkpoint bound, and starts its persistence goroutine.
func (s *Server) newStore(journal *journalWriter, bound int) *diskStore {
	d := &diskStore{
		dir:     s.cfg.Dir,
		keep:    s.cfg.KeepCheckpoints,
		gameFP:  gameFingerprint(s.game),
		journal: journal,
		bound:   bound,
		jobs:    make(chan *rotation, 1),
		stopped: make(chan struct{}),
	}
	go d.persistLoop()
	return d
}

// newEngine assembles the engine layer over the pricer and store.
func (s *Server) newEngine() *engine {
	return &engine{game: s.game, pricer: s.pricer, store: s.st}
}

// boot builds a fresh pricer and persists the boot checkpoint + empty
// journal before serving anything.
func (s *Server) boot(jpath string) error {
	if stale, _ := filepath.Glob(filepath.Join(s.cfg.Dir, "checkpoint-*.bin")); len(stale) > 0 {
		return fmt.Errorf("serve: state dir %s has %d checkpoint(s) but no journal — refusing to cold-start over existing state (restore the journal, or empty the directory to really start fresh)",
			s.cfg.Dir, len(stale))
	}
	p, err := sim.NewOnlinePricer(s.pricerConfig())
	if err != nil {
		return err
	}
	ck, err := p.Snapshot()
	if err != nil {
		return fmt.Errorf("serve: boot checkpoint: %w", err)
	}
	ckPath := checkpointPath(s.cfg.Dir, ck.Pricer.Snapshots)
	crc, err := writeCheckpoint(ckPath, ck)
	if err != nil {
		return err
	}
	journal, err := newJournal(jpath, bindHeader(gameFingerprint(s.game), ck.Pricer, crc))
	if err != nil {
		// No journal binds the checkpoint just written, so removing it
		// loses nothing acknowledged, and the next Open boots afresh
		// instead of refusing a directory with a checkpoint but no
		// journal. A crash between the two steps still leaves that
		// state (see the Serving section of the package doc).
		if rmErr := os.Remove(ckPath); rmErr != nil {
			err = errors.Join(err, fmt.Errorf("serve: removing the unbound boot checkpoint: %w", rmErr))
		}
		return err
	}
	s.pricer = p
	s.st = s.newStore(journal, ck.Pricer.Snapshots)
	s.eng = s.newEngine()
	s.syncStats()
	return nil
}

// recoverState rebuilds the server from the journal at jpath and its
// bound checkpoint, replaying every journaled round through the normal
// engine path. The replay runs the rotation pipeline synchronously, so
// it re-reaches every rotation and journal switch the crashed process
// made or was about to make. Its journal is a shadow that only replaces
// the real one once the replay completes, so a crash mid-recovery leaves
// the original journal untouched and recovery simply restarts.
func (s *Server) recoverState(jpath string) (err error) {
	h, entries, torn, err := readJournal(jpath)
	if err != nil {
		return err
	}
	if fp := gameFingerprint(s.game); h.Game != fp {
		return fmt.Errorf("serve: journal %s was written against a different reference game\n  journal: %s\n  config:  %s", jpath, h.Game, fp)
	}
	if s.cfg.Agent != nil {
		return fmt.Errorf("serve: Config.Agent must be nil when resuming state dir %s — the learner is rebuilt from its checkpoint", s.cfg.Dir)
	}
	ckPath := checkpointPath(s.cfg.Dir, h.Snapshots)
	ck, crc, err := loadCheckpoint(ckPath)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("serve: journal %s extends checkpoint %d (%s), which is gone — rotated away or deleted; refusing to cold-start: a journaled state is restored exactly or not at all",
			jpath, h.Snapshots, ckPath)
	}
	if err != nil {
		return err
	}
	if crc != h.CheckpointCRC {
		return fmt.Errorf("serve: checkpoint %s does not match the journal binding (CRC %08x, journal expects %08x) — the files describe different runs", ckPath, crc, h.CheckpointCRC)
	}
	ps := ck.Pricer
	if ps == nil {
		return fmt.Errorf("serve: checkpoint %s carries no pricer section", ckPath)
	}
	if ps.Snapshots != h.Snapshots || ps.Rounds != h.Rounds || ps.Updates != h.Updates {
		return fmt.Errorf("serve: checkpoint %s counters (snapshots=%d rounds=%d updates=%d) disagree with the journal header (snapshots=%d rounds=%d updates=%d)",
			ckPath, ps.Snapshots, ps.Rounds, ps.Updates, h.Snapshots, h.Rounds, h.Updates)
	}
	p, err := sim.NewOnlinePricerFromCheckpoint(s.pricerConfig(), ck)
	if err != nil {
		return err
	}
	journal, err := newJournal(jpath+".replay", h)
	if err != nil {
		return err
	}
	s.pricer = p
	s.st = s.newStore(journal, h.Snapshots)
	defer func() {
		if err != nil {
			s.st.close()
		}
	}()
	s.eng = s.newEngine()
	s.replaying = true
	for _, e := range entries {
		// Replay batches one round at a time; rule 8 makes the cut
		// irrelevant, and per-round replies keep the failing entry exact.
		replies := s.eng.processBatch([]QuoteRequest{e.Req})
		if err := replies[0].err; err != nil {
			return fmt.Errorf("serve: replaying journal entry %d: %w", e.Seq, err)
		}
		if s.rotateErr != nil {
			return fmt.Errorf("serve: replaying journal entry %d: %w", e.Seq, s.rotateErr)
		}
	}
	s.replaying = false
	if err := os.Rename(s.st.journal.path, jpath); err != nil {
		return fmt.Errorf("serve: committing replayed journal: %w", err)
	}
	s.st.journal.path = jpath
	if err := pruneCheckpoints(s.cfg.Dir, s.st.bound, s.cfg.KeepCheckpoints); err != nil {
		return fmt.Errorf("serve: pruning checkpoints: %w", err)
	}
	s.syncStats()
	s.mu.Lock()
	s.stats.ReplayedRounds = len(entries)
	s.stats.TornDropped = torn
	s.mu.Unlock()
	return nil
}

// pricerConfig assembles the sim.OnlinePricerConfig both boot and
// recovery build the pricer from; the OnSnapshot hook routes rotations
// back into the server.
func (s *Server) pricerConfig() sim.OnlinePricerConfig {
	return sim.OnlinePricerConfig{
		Game:          s.game,
		HistoryLen:    s.cfg.HistoryLen,
		Agent:         s.cfg.Agent,
		PPO:           s.cfg.PPO,
		UpdateEvery:   s.cfg.UpdateEvery,
		Seed:          s.cfg.Seed,
		SnapshotEvery: s.cfg.SnapshotEvery,
		OnSnapshot:    s.onSnapshot,
	}
}

// onSnapshot is the pricer's SnapshotEvery hook: one rotation boundary
// of the persistence layer's pipeline (see diskStore). It runs
// synchronously on the intake goroutine (inside the engine's serial
// core), so the journal switch always lands on the same round of the
// request stream. A failed rotation during live serving — the previous
// boundary's checkpoint job or the switch to it — is recorded here and
// the journal keeps extending the checkpoint it binds: every round since
// it is still journaled, so the state remains exactly recoverable.
// During replay the failure aborts the recovery instead.
func (s *Server) onSnapshot(ck *nn.Checkpoint) {
	err := s.st.rotate(ck, s.replaying)
	if err == nil {
		return
	}
	if s.replaying {
		s.rotateErr = err
		return
	}
	s.mu.Lock()
	s.stats.RotateErrors++
	s.stats.LastRotateError = err.Error()
	s.mu.Unlock()
}

// syncStats refreshes the shared stats view from the pricer; the intake
// goroutine calls it after every batch.
func (s *Server) syncStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Rounds = s.pricer.Rounds()
	s.stats.Updates = s.pricer.Updates()
	s.stats.Snapshots = s.pricer.Snapshots()
	s.stats.Pending = s.pricer.Rounds() % s.pricer.UpdateEvery()
	if best := s.pricer.BestUtility(); !math.IsInf(best, -1) {
		s.stats.BestUtility, s.stats.BestSet = best, true
	}
	s.stats.JournalEntries = s.st.entryCount()
}

// Stats returns a point-in-time view of the serving state.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Dir returns the durable state directory.
func (s *Server) Dir() string { return s.cfg.Dir }

// Close stops accepting quotes, drains the intake queue, waits for the
// persistence goroutine, and closes the journal. Neither the final
// partial learning segment nor the last rotation's checkpoint is
// committed: their rounds live in the journal, and a later Open replays
// them — re-running that rotation — exactly as if the server had never
// stopped.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait()
	close(s.jobs)
	<-s.done
	return s.st.close()
}

// gameFingerprint pins the reference game's full parameterization for the
// journal header: N followers with their ids/αs/data sizes, the channel
// template, and the MSP constants. Two servers with equal fingerprints
// build identical games from identical requests.
func gameFingerprint(g *stackelberg.Game) string {
	ids := make([]string, len(g.VMUs))
	for i, v := range g.VMUs {
		ids[i] = fmt.Sprintf("%d:%g:%g", v.ID, v.Alpha, v.DataSize)
	}
	sort.Strings(ids)
	return fmt.Sprintf("vmus=[%v] ch=%+v C=%g pmax=%g bmax=%g", ids, g.Channel, g.Cost, g.PMax, g.BMax)
}
