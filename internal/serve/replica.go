package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vtmig/internal/mathx"
	"vtmig/internal/rl"
	"vtmig/internal/sim"
	"vtmig/internal/stackelberg"
)

// ReplicaConfig parameterizes a read replica.
type ReplicaConfig struct {
	// Dir is the primary's state directory. The replica only ever reads
	// from it: rotated checkpoints feed the frozen pricer, and the
	// journal header pins the reference game the checkpoints were
	// written against.
	Dir string
	// Game is the reference game, with the Config.Game semantics; it must
	// fingerprint-match the primary's journal header.
	Game *stackelberg.Game
	// HistoryLen and PPO describe the primary's learner exactly as in
	// Config (zero HistoryLen adopts the checkpointed belief window; PPO
	// must describe the checkpointed architecture).
	HistoryLen int
	PPO        rl.PPOConfig
	// Refresh, when positive, polls Dir for newer rotated checkpoints at
	// this cadence and swaps them in without interrupting quote traffic.
	// Zero serves the Open-time checkpoint until Refresh is called
	// explicitly.
	Refresh time.Duration
}

// ReplicaStats is a point-in-time view of a replica, served at
// /v1/stats in place of the primary's Stats.
type ReplicaStats struct {
	// Replica marks the payload so clients can tell the two stats shapes
	// apart.
	Replica bool `json:"replica"`
	// Snapshots is the snapshot ordinal of the loaded checkpoint;
	// Rounds/Updates are the frozen state's counters at that ordinal.
	Snapshots int `json:"snapshots"`
	Rounds    int `json:"rounds"`
	Updates   int `json:"updates"`
	// CheckpointAgeS is the staleness signal: seconds since the loaded
	// checkpoint file was written by the primary.
	CheckpointAgeS float64 `json:"checkpoint_age_s"`
	// Refreshes counts checkpoint swaps since Open (the boot load
	// included); RefreshErrors counts failed refresh attempts, which
	// leave the previous frozen state serving.
	Refreshes        int    `json:"refreshes"`
	RefreshErrors    int    `json:"refresh_errors"`
	LastRefreshError string `json:"last_refresh_error,omitempty"`
}

// Replica is a checkpoint-fed read replica: it freezes the primary's
// latest published checkpoint into a learner-free pricer
// (sim.FrozenPricer) and answers quote-only traffic from it — no
// journal, no learning, no serialization point, so replicas scale
// horizontally and one Replica serves any number of concurrent quotes.
// Every answer is bit-identical to the price the primary posted for its
// first quote after the same snapshot ordinal (the frozen readout
// reproduces the primary's deterministic mean readout bit for bit —
// contract rules 1 and 8). Construct with OpenReplica; swap in newer
// checkpoints with Refresh or the ReplicaConfig.Refresh poller.
type Replica struct {
	cfg  ReplicaConfig
	game *stackelberg.Game

	state atomic.Pointer[replicaState]

	mu             sync.Mutex
	closed         bool
	refreshes      int
	refreshErrors  int
	lastRefreshErr string

	stop chan struct{}
	done chan struct{}

	// testHookPicked, set only by tests, runs in refresh between picking
	// the newest checkpoint and reading it: the window a concurrent prune
	// of that file can hit.
	testHookPicked func(path string)
}

// replicaState is one immutable loaded checkpoint: the frozen pricer
// plus the file's write time (the staleness reference).
type replicaState struct {
	fz      *sim.FrozenPricer
	written time.Time
}

// OpenReplica opens a read replica over the primary's state directory.
// The directory must hold a journaled primary state (a journal whose
// game fingerprint matches cfg.Game and at least one rotated
// checkpoint); the latest checkpoint is frozen strictly — a missing or
// corrupt one refuses loudly, exactly like primary recovery.
func OpenReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: ReplicaConfig.Dir is required")
	}
	if cfg.Refresh < 0 {
		return nil, fmt.Errorf("serve: negative ReplicaConfig.Refresh")
	}
	if cfg.Game == nil {
		cfg.Game = stackelberg.DefaultGame()
	}
	if err := cfg.Game.Validate(); err != nil {
		return nil, err
	}
	h, err := readJournalHeader(filepath.Join(cfg.Dir, journalName))
	if err != nil {
		return nil, err
	}
	if fp := gameFingerprint(cfg.Game); h.Game != fp {
		return nil, fmt.Errorf("serve: primary state dir %s was written against a different reference game\n  journal: %s\n  config:  %s", cfg.Dir, h.Game, fp)
	}
	r := &Replica{cfg: cfg, game: cfg.Game, stop: make(chan struct{}), done: make(chan struct{})}
	if err := r.Refresh(); err != nil {
		return nil, err
	}
	if cfg.Refresh > 0 {
		go r.poll()
	} else {
		close(r.done)
	}
	return r, nil
}

// Refresh scans the primary's directory for the latest published
// checkpoint and, if it is newer than the loaded one, freezes and swaps
// it in atomically. The primary publishes checkpoint k at rotation k+1's
// boundary, so a current replica trails the primary's latest rotation by
// one; in-flight quotes keep answering from the state they
// started with. On error the previous state keeps serving (recorded in
// Stats); returns nil when already current.
func (r *Replica) Refresh() error {
	err := r.refresh()
	if err == nil {
		return nil
	}
	r.mu.Lock()
	r.refreshErrors++
	r.lastRefreshErr = err.Error()
	r.mu.Unlock()
	return err
}

func (r *Replica) refresh() error {
	path, ordinal, err := latestCheckpoint(r.cfg.Dir)
	if err != nil {
		return err
	}
	if cur := r.state.Load(); cur != nil && cur.fz.Snapshots() >= ordinal {
		return nil
	}
	if r.testHookPicked != nil {
		r.testHookPicked(path)
	}
	ck, _, err := loadCheckpoint(path)
	if err != nil {
		return err
	}
	fz, err := sim.NewFrozenPricerFromCheckpoint(sim.OnlinePricerConfig{
		Game:       r.game,
		HistoryLen: r.cfg.HistoryLen,
		PPO:        r.cfg.PPO,
	}, ck)
	if err != nil {
		return err
	}
	written := time.Now()
	if fi, err := os.Stat(path); err == nil {
		written = fi.ModTime()
	}
	r.state.Store(&replicaState{fz: fz, written: written})
	r.mu.Lock()
	r.refreshes++
	r.mu.Unlock()
	return nil
}

// poll is the background refresher behind ReplicaConfig.Refresh.
func (r *Replica) poll() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.Refresh)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.Refresh() // errors are recorded in Stats; keep serving
		}
	}
}

// Quote answers one round from the frozen state. The request is
// validated exactly like on the primary (same RequestError surface); the
// price is the frozen deterministic readout clamped to the round's
// [Cost, PMax], and Round/Updates report the frozen state's counters.
func (r *Replica) Quote(_ context.Context, req QuoteRequest) (QuoteResponse, error) {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return QuoteResponse{}, ErrClosed
	}
	g, err := buildQuoteGame(r.game, req)
	if err != nil {
		return QuoteResponse{}, &RequestError{err}
	}
	fz := r.state.Load().fz
	price := mathx.Clamp(fz.PriceFor(g), g.Cost, g.PMax)
	return QuoteResponse{Price: price, Round: fz.Rounds(), Updates: fz.Updates()}, nil
}

// Stats returns a point-in-time view of the replica.
func (r *Replica) Stats() ReplicaStats {
	st := r.state.Load()
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaStats{
		Replica:          true,
		Snapshots:        st.fz.Snapshots(),
		Rounds:           st.fz.Rounds(),
		Updates:          st.fz.Updates(),
		CheckpointAgeS:   time.Since(st.written).Seconds(),
		Refreshes:        r.refreshes,
		RefreshErrors:    r.refreshErrors,
		LastRefreshError: r.lastRefreshErr,
	}
}

// Dir returns the primary state directory the replica reads from.
func (r *Replica) Dir() string { return r.cfg.Dir }

// Close stops the background refresher and rejects further quotes. It
// never touches the primary's files.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	<-r.done
	return nil
}

// latestCheckpoint locates the highest-ordinal rotated checkpoint in
// dir.
func latestCheckpoint(dir string) (string, int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.bin"))
	if err != nil {
		return "", 0, fmt.Errorf("serve: scanning %s for checkpoints: %w", dir, err)
	}
	best, bestOrdinal := "", -1
	for _, p := range paths {
		n, ok := checkpointOrdinal(filepath.Base(p))
		if !ok {
			continue
		}
		if n > bestOrdinal {
			best, bestOrdinal = p, n
		}
	}
	if best == "" {
		return "", 0, fmt.Errorf("serve: no rotated checkpoint in %s — is it a primary's state directory?", dir)
	}
	return best, bestOrdinal, nil
}

// readJournalHeader parses only the first line of a journal — enough to
// pin the reference game without reading the entry tail a live primary
// keeps appending to.
func readJournalHeader(path string) (journalHeader, error) {
	var h journalHeader
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return h, fmt.Errorf("serve: %s has no journal — a replica needs a primary's state directory", filepath.Dir(path))
	}
	if err != nil {
		return h, fmt.Errorf("serve: reading journal header: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		return h, fmt.Errorf("serve: journal %s is empty — not even a header; the state directory is corrupt", path)
	}
	if err := decodeStrict(bytes.NewReader(sc.Bytes()), &h); err != nil {
		return h, fmt.Errorf("serve: journal %s header: %w", path, err)
	}
	if h.Magic != journalMagic {
		return h, fmt.Errorf("serve: %s is not a vtmig-serve journal (magic %q)", path, h.Magic)
	}
	if h.Version != journalVersion {
		return h, fmt.Errorf("serve: journal %s has version %d, this build reads %d", path, h.Version, journalVersion)
	}
	return h, nil
}
