package rl

import (
	"fmt"

	"vtmig/internal/nn"
)

// TrainerConfig parameterizes Algorithm 1 of the paper.
type TrainerConfig struct {
	// Episodes is E, the number of training episodes.
	Episodes int
	// RoundsPerEpisode is K, the number of game rounds per episode.
	RoundsPerEpisode int
	// UpdateEvery is |I|: an optimization phase runs whenever this many
	// new transitions have been collected (and at episode end).
	UpdateEvery int
	// Deprecated: collection steps its envs serially, so the value is
	// ignored. bench/train.go is its only writer; the field goes when
	// that file stops setting it.
	CollectWorkers int
}

// validate panics on invalid settings.
func (c TrainerConfig) validate() {
	if c.Episodes <= 0 || c.RoundsPerEpisode <= 0 || c.UpdateEvery <= 0 {
		panic(fmt.Sprintf("rl: invalid TrainerConfig %+v", c))
	}
}

// EpisodeStats reports one training episode.
type EpisodeStats struct {
	// Episode is the zero-based episode index.
	Episode int
	// Return is the undiscounted sum of rewards over the episode — the
	// quantity plotted in Fig. 2(a).
	Return float64
	// MeanReward is Return / K.
	MeanReward float64
	// FinalUpdate carries the statistics of the last optimization phase
	// of the episode (with vectorized collection, of the episode block the
	// episode belongs to — the block's episodes share update phases).
	FinalUpdate UpdateStats
}

// Trainer runs the episode loop of Algorithm 1: collect transitions from
// the environment with the current policy, and every |I| rounds run a PPO
// optimization phase on the buffered segment.
//
// With a multi-env EnvSlice (NewVecTrainer), episodes run in lockstep
// blocks of up to NumEnvs independently seeded environments: each round
// evaluates the policy for every live env in one batched pass and steps
// the envs in ascending order, and an optimization phase runs whenever
// the block has staged |I| new transitions (and at block end). The
// block's transitions merge into the shared rollout in fixed env-index
// order, so the run is bit-reproducible for a fixed seed. A single-env
// trainer is bit-identical to the classic serial collect loop.
type Trainer struct {
	cfg   TrainerConfig
	vec   *EnvSlice
	agent *PPO
	buf   *Rollout
	col   *VecCollector

	// completed counts the episodes finished so far, across Run calls and
	// across a Restore: Run trains from completed up to cfg.Episodes, so
	// cfg.Episodes is always the TOTAL episode budget of the training
	// stream, resumed or not.
	completed int

	// statsBuf is the per-block EpisodeStats scratch, reused so the
	// steady-state episode loop stays allocation-free.
	statsBuf []EpisodeStats

	// OnEpisode, when non-nil, is invoked after every episode with its
	// statistics. Returning false stops training early (with vectorized
	// collection, at the end of the current episode block). The callback
	// runs at an episode-block boundary, so calling Snapshot from it is
	// valid.
	OnEpisode func(EpisodeStats) bool

	// Fingerprint, when set, is embedded in snapshots as
	// Meta.Fingerprint — an opaque pin of the training configuration that
	// resume paths check before restoring (experiments.DRLConfig
	// .Fingerprint is the canonical producer).
	Fingerprint string
}

// NewTrainer wires a single environment and a PPO learner together — the
// paper's serial Algorithm 1.
func NewTrainer(env Env, agent *PPO, cfg TrainerConfig) *Trainer {
	return NewVecTrainer(NewEnvSlice(env), agent, cfg)
}

// NewVecTrainer wires a set of environments and a PPO learner together.
// Up to vec.NumEnvs() episodes run in lockstep per block. To resume a
// checkpointed run, build vec and agent fresh with the checkpoint's
// configuration and call Restore before Run.
func NewVecTrainer(vec *EnvSlice, agent *PPO, cfg TrainerConfig) *Trainer {
	cfg.validate()
	return &Trainer{
		cfg:   cfg,
		vec:   vec,
		agent: agent,
		buf:   NewRollout(cfg.RoundsPerEpisode * vec.NumEnvs()),
		col:   NewVecCollector(vec, agent),
	}
}

// Run executes the training loop from the episodes already completed
// (zero for a fresh trainer, the checkpointed count after a Restore) up
// to cfg.Episodes, and returns the per-episode statistics of the episodes
// it ran.
func (t *Trainer) Run() []EpisodeStats {
	rem := t.cfg.Episodes - t.completed
	if rem < 0 {
		rem = 0
	}
	out := make([]EpisodeStats, 0, rem)
	for t.completed < t.cfg.Episodes {
		active := t.vec.NumEnvs()
		if rem := t.cfg.Episodes - t.completed; active > rem {
			active = rem
		}
		stats := t.runBlock(t.completed, active)
		t.completed += active
		stop := false
		for _, s := range stats {
			out = append(out, s)
			if t.OnEpisode != nil && !t.OnEpisode(s) {
				stop = true
			}
		}
		if stop {
			break
		}
	}
	return out
}

// Completed returns the number of episodes finished so far (cumulative
// across Run calls, seeded by a Restore).
func (t *Trainer) Completed() int { return t.completed }

// Rewind resets the episode counter to zero without touching the agent or
// the environments, so the next Run trains a full cfg.Episodes more on
// the current state — continued training beyond the original budget, or
// re-measuring fixed-size blocks in benchmarks. (A Run on a trainer whose
// budget is exhausted is otherwise a no-op: cfg.Episodes is the TOTAL
// budget of the stream, which is what makes resume-after-Restore
// bit-identical.)
func (t *Trainer) Rewind() { t.completed = 0 }

// Snapshot captures the complete training state at the current
// episode-block boundary: the agent's weights, optimizer state, and RNG
// stream (PPO.Snapshot), each environment stream's cross-episode state in
// env-index order, and the episode count plus configuration fingerprint.
// Every environment must implement SnapshotEnv. Valid between Run calls
// and from an OnEpisode callback; a fresh trainer restored from the
// result (NewVecTrainer, then Restore) continues bit-identically to one
// that never stopped, under any GOMAXPROCS — determinism contract rule 6.
func (t *Trainer) Snapshot() (*nn.Checkpoint, error) {
	ck, err := t.agent.Snapshot()
	if err != nil {
		return nil, err
	}
	n := t.vec.NumEnvs()
	ck.Envs = make([]nn.EnvState, n)
	for e := 0; e < n; e++ {
		se, ok := t.vec.EnvAt(e).(SnapshotEnv)
		if !ok {
			return nil, fmt.Errorf("rl: env %d (%T) does not support checkpointing", e, t.vec.EnvAt(e))
		}
		ck.Envs[e] = se.EnvSnapshot()
	}
	// The agent snapshot already carries the learner fingerprint in Meta;
	// fill in the trainer-level metadata alongside it.
	ck.Meta.Episodes = t.completed
	ck.Meta.Fingerprint = t.Fingerprint
	return ck, nil
}

// Restore rewinds a freshly constructed trainer to a checkpointed
// training state: the agent is fully restored (weights, optimizer, RNG),
// every environment stream is rewound to its recorded position, and the
// episode counter resumes at the checkpointed count — the next Run trains
// the remaining cfg.Episodes − Meta.Episodes episodes exactly as an
// uninterrupted run would. The trainer's environments and configuration
// must match the checkpoint's, and the checkpointed episode count must
// fall on an episode-block boundary of the resumed schedule (a multiple
// of NumEnvs, or the full budget; always true with a single environment)
// — a snapshot taken after a truncated final block cannot be extended
// bit-identically, so Restore rejects it instead of silently diverging
// from an uninterrupted run. On error the checkpoint may have been
// partially applied to the freshly built environments (the caller-owned
// agent is mutated last, only after every environment restored cleanly);
// discard the trainer, envs, and agent and rebuild.
func (t *Trainer) Restore(ck *nn.Checkpoint) error {
	if ck == nil {
		return fmt.Errorf("rl: nil checkpoint")
	}
	// Validate before any environment restores: it caps each stream's
	// replay at mathx.StateLen − 1 draws.
	if err := ck.Validate(); err != nil {
		return err
	}
	if ck.Meta.Episodes > t.cfg.Episodes {
		return fmt.Errorf("rl: checkpoint completed %d episodes, beyond the configured total %d", ck.Meta.Episodes, t.cfg.Episodes)
	}
	n := t.vec.NumEnvs()
	if ck.Meta.Episodes%n != 0 && ck.Meta.Episodes != t.cfg.Episodes {
		return fmt.Errorf("rl: checkpoint at %d episodes is not an episode-block boundary of a %d-env schedule; an uninterrupted run would partition the remaining episodes differently, so the resume cannot be bit-identical", ck.Meta.Episodes, n)
	}
	if len(ck.Envs) != n {
		return fmt.Errorf("rl: checkpoint carries %d environment streams, trainer has %d", len(ck.Envs), n)
	}
	// Verify every env supports restoring before mutating anything.
	envs := make([]SnapshotEnv, n)
	for e := 0; e < n; e++ {
		se, ok := t.vec.EnvAt(e).(SnapshotEnv)
		if !ok {
			return fmt.Errorf("rl: env %d (%T) does not support checkpointing", e, t.vec.EnvAt(e))
		}
		envs[e] = se
	}
	for e, se := range envs {
		if err := se.EnvRestore(ck.Envs[e]); err != nil {
			return fmt.Errorf("rl: restoring env %d: %w", e, err)
		}
	}
	if err := t.agent.Restore(ck); err != nil {
		return err
	}
	t.completed = ck.Meta.Episodes
	t.Fingerprint = ck.Meta.Fingerprint
	return nil
}

// runBlock plays one lockstep episode block over the first active envs
// (Algorithm 1, lines 4–14; active == 1 reproduces the serial per-episode
// body exactly). The returned slice aliases trainer-owned scratch
// overwritten by the next block.
func (t *Trainer) runBlock(firstEpisode, active int) []EpisodeStats {
	t.col.Begin(active)
	t.buf.Reset()

	var lastUpdate UpdateStats
	since := 0
	for k := 0; k < t.cfg.RoundsPerEpisode && t.col.Live() > 0; k++ {
		final := k == t.cfg.RoundsPerEpisode-1
		since += t.col.Step(final)
		if since >= t.cfg.UpdateEvery || final || t.col.Live() == 0 {
			t.col.Merge(t.buf)
			lastUpdate = t.agent.Update(t.buf)
			since = 0
		}
	}

	if cap(t.statsBuf) < active {
		t.statsBuf = make([]EpisodeStats, active)
	}
	stats := t.statsBuf[:active]
	returns := t.col.Returns()
	for e := 0; e < active; e++ {
		stats[e] = EpisodeStats{
			Episode:     firstEpisode + e,
			Return:      returns[e],
			MeanReward:  returns[e] / float64(t.cfg.RoundsPerEpisode),
			FinalUpdate: lastUpdate,
		}
	}
	return stats
}
