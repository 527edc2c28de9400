package nn

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"vtmig/internal/mathx"
)

// CheckpointVersion is the current checkpoint format version. Version 1
// introduced the full training state (optimizer moments, RNG stream
// positions, environment streams, training metadata); version 2 adds the
// directly captured RNG generator state (RNGState.State) and the online
// pricer section (Pricer), plus the binary encoding (SaveBinary). Version
// 0 files — the historical params-only JSON — still load, but can only
// warm-start weights, not resume training; version 1 files load and
// resume exactly as before (their RNG streams restore by replay).
const CheckpointVersion = 2

// Checkpoint is a versioned, serializable snapshot of a training state.
// The parameter values are always present; the remaining sections are
// optional and carried only by full training checkpoints:
//
//   - Opt holds the per-parameter optimizer state (Adam first/second
//     moments and the global step count) so a restored run applies the
//     exact updates a continued run would.
//   - RNG is the policy RNG stream position: a (seed, calls) pair plus —
//     in version 2 checkpoints of streams at least mathx.StateLen draws
//     old — the directly captured generator state, restored in constant
//     time (mathx.NewCountingSourceFromState); without the state the
//     stream is replayed (mathx.NewCountingSourceAt).
//   - Envs are the cross-episode states of the training-environment
//     streams, in fixed env-index order.
//   - Meta records the episode count at the snapshot and a fingerprint of
//     the training configuration, checked on resume.
//   - Pricer is the simulator-embedded online pricer's deployment state —
//     the encoder belief window, current observation, running-best
//     utility, and stream-collector counters (version 2;
//     sim.OnlinePricer.Snapshot writes it).
//
// A checkpoint with all sections restores training bit-identically:
// train K episodes, snapshot, restore, train K more is the same run as
// training 2K straight (determinism contract rule 6).
type Checkpoint struct {
	// Version is the format version (CheckpointVersion when written by
	// this code; 0 in legacy params-only files).
	Version int `json:"version"`
	// Params maps parameter names to their flat values.
	Params map[string][]float64 `json:"params"`
	// Opt is the optimizer state (nil in weights-only checkpoints).
	Opt *OptState `json:"opt,omitempty"`
	// RNG is the policy RNG stream position (nil in weights-only
	// checkpoints).
	RNG *RNGState `json:"rng,omitempty"`
	// Envs are the training-environment stream states, env-index
	// ascending (empty for learners without trainer-owned environments,
	// e.g. the simulator's online pricer).
	Envs []EnvState `json:"envs,omitempty"`
	// Meta is the training metadata (nil in weights-only checkpoints).
	Meta *TrainMeta `json:"meta,omitempty"`
	// Pricer is the online pricer's deployment state (nil outside pricer
	// checkpoints; version 2).
	Pricer *PricerState `json:"pricer,omitempty"`
}

// OptState is the serialized optimizer state of a checkpoint.
type OptState struct {
	// Algo names the optimizer; only "adam" is defined.
	Algo string `json:"algo"`
	// Step is the global step count t (drives Adam's bias correction).
	Step int `json:"step"`
	// M and V map parameter names to the first and second moment
	// estimates, same length as the parameter.
	M map[string][]float64 `json:"m"`
	V map[string][]float64 `json:"v"`
}

// RNGState is a checkpointable RNG stream position: the stream's seed and
// the number of generator advances consumed so far (see
// mathx.CountingSource). Version 2 checkpoints additionally carry the
// directly captured generator state — the stream's last mathx.StateLen
// raw outputs (mathx.CountingSource.StateSnapshot) — so restore costs
// O(StateLen) instead of replaying calls draws; State is empty for
// streams younger than StateLen draws, where replay is just as fast.
type RNGState struct {
	Seed  int64    `json:"seed"`
	Calls uint64   `json:"calls"`
	State []uint64 `json:"state,omitempty"`
}

// EnvState is the cross-episode state of one training-environment stream
// at an episode boundary: its RNG position plus the running-best
// statistic behind the paper's binary reward (Eq. 12), which persists
// across episodes.
type EnvState struct {
	// RNG is the environment's RNG stream position.
	RNG RNGState `json:"rng"`
	// Best is the running-best leader utility; meaningful only when
	// BestSet (JSON cannot carry the -Inf that means "nothing observed
	// yet").
	Best float64 `json:"best"`
	// BestSet reports whether Best holds an observed value.
	BestSet bool `json:"best_set"`
}

// TrainMeta is the training metadata of a full checkpoint.
type TrainMeta struct {
	// Episodes is the number of training episodes completed at the
	// snapshot.
	Episodes int `json:"episodes"`
	// Fingerprint pins the full training configuration the stream was
	// produced under — game, episode schedule, and learner — as computed
	// by experiments.DRLConfig.Fingerprint; resuming under a different
	// configuration is rejected.
	Fingerprint string `json:"fingerprint,omitempty"`
	// PPO pins just the learner hyper-parameters
	// (rl.PPOConfig.Fingerprint); every full agent restore — including
	// deployment warm starts outside the experiments harness — rejects a
	// mismatch, so e.g. restored Adam moments can never silently continue
	// under a different learning rate.
	PPO string `json:"ppo,omitempty"`
}

// PricerState is the deployment state of the simulator-embedded online
// pricer (sim.OnlinePricer) at an optimization-phase boundary — exactly
// the state that, together with the learner sections, makes a restored
// pricer continue pricing and training bit-identically. The package
// stores only plain data here: the reward kind is the integer value of
// pomdp.RewardKind (this package cannot import pomdp).
type PricerState struct {
	// History is the encoder belief window, one row per remembered round,
	// oldest first; all rows have the same positive width (1 + demand
	// slots).
	History [][]float64 `json:"history"`
	// Obs is the pricer's current observation — the flattened window the
	// next action will be selected at (len(History)×row-width values).
	Obs []float64 `json:"obs"`
	// Best is the running-best live leader utility behind the Eq. (12)
	// binary reward; meaningful only when BestSet (JSON cannot carry the
	// -Inf that means "nothing observed yet").
	Best float64 `json:"best"`
	// BestSet reports whether Best holds an observed value.
	BestSet bool `json:"best_set"`
	// Rounds is the number of live rounds learned from so far.
	Rounds int `json:"rounds"`
	// Updates is the number of optimization phases run so far; it drives
	// both reward accounting and the snapshot cadence.
	Updates int `json:"updates"`
	// Snapshots is the number of mid-run checkpoints delivered so far,
	// this one included.
	Snapshots int `json:"snapshots"`
	// UpdateEvery is the optimization cadence |I| in live rounds.
	UpdateEvery int `json:"update_every"`
	// Reward is the configured reward kind as the integer value of
	// pomdp.RewardKind.
	Reward int `json:"reward"`
	// BestTolFrac is the RewardBinary tolerance band configuration
	// (pomdp.Config.BestTolFrac semantics: 0 default band, negative
	// exact).
	BestTolFrac float64 `json:"best_tol_frac"`
}

// Snapshot captures the current values of params into a weights-only
// Checkpoint (callers add Opt/RNG/Envs/Meta for a full training
// checkpoint; rl.PPO.Snapshot and rl.Trainer.Snapshot do). Parameter
// names must be unique.
func Snapshot(params []*Param) (*Checkpoint, error) {
	ck := &Checkpoint{Version: CheckpointVersion, Params: make(map[string][]float64, len(params))}
	for _, p := range params {
		if _, dup := ck.Params[p.Name]; dup {
			return nil, fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		v := make([]float64, len(p.Value))
		copy(v, p.Value)
		ck.Params[p.Name] = v
	}
	return ck, nil
}

// Restore copies checkpointed values into the matching parameters. The
// match must be exact in both directions: every parameter must be present
// in the checkpoint with the right length, and every checkpointed name
// must correspond to a parameter — a checkpoint from a different
// architecture fails loudly instead of partially applying.
func (c *Checkpoint) Restore(params []*Param) error {
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if seen[p.Name] {
			return fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
		v, ok := c.Params[p.Name]
		if !ok {
			return fmt.Errorf("nn: checkpoint missing parameter %q", p.Name)
		}
		if len(v) != len(p.Value) {
			return fmt.Errorf("nn: checkpoint parameter %q has length %d, want %d", p.Name, len(v), len(p.Value))
		}
	}
	if extra := extraNames(c.Params, seen); len(extra) > 0 {
		return fmt.Errorf("nn: checkpoint carries unknown parameters %v — trained on a different architecture?", extra)
	}
	for _, p := range params {
		copy(p.Value, c.Params[p.Name])
	}
	return nil
}

// extraNames returns the sorted keys of m not present in known.
func extraNames(m map[string][]float64, known map[string]bool) []string {
	var extra []string
	for name := range m {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return extra
}

// Validate reports whether the checkpoint is structurally sound: a known
// version, at least one parameter, no zero-length vectors, every value
// finite, and internally consistent optimizer/environment sections.
// LoadCheckpoint validates automatically; callers constructing
// checkpoints by hand can validate explicitly.
func (c *Checkpoint) Validate() error {
	if c.Version < 0 || c.Version > CheckpointVersion {
		return fmt.Errorf("nn: checkpoint version %d not supported (max %d)", c.Version, CheckpointVersion)
	}
	if len(c.Params) == 0 {
		return fmt.Errorf("nn: checkpoint has no parameters")
	}
	for name, v := range c.Params {
		if err := validateVector("parameter", name, v); err != nil {
			return err
		}
	}
	if c.Opt != nil {
		if err := c.Opt.validate(c.Params); err != nil {
			return err
		}
	}
	if c.RNG != nil {
		if err := c.RNG.validate(c.Version, "rng"); err != nil {
			return err
		}
	}
	for i, es := range c.Envs {
		if es.BestSet && (math.IsNaN(es.Best) || math.IsInf(es.Best, 0)) {
			return fmt.Errorf("nn: checkpoint env %d best value %v is not finite", i, es.Best)
		}
		if err := es.RNG.validate(c.Version, fmt.Sprintf("env %d rng", i)); err != nil {
			return err
		}
	}
	if c.Meta != nil && c.Meta.Episodes < 0 {
		return fmt.Errorf("nn: checkpoint episode count %d is negative", c.Meta.Episodes)
	}
	if c.Pricer != nil {
		if c.Version < 2 {
			return fmt.Errorf("nn: checkpoint version %d cannot carry a pricer section (introduced in version 2)", c.Version)
		}
		if err := c.Pricer.validate(); err != nil {
			return err
		}
	}
	return nil
}

// validate checks one RNG stream position: a captured generator state is
// a version-2 feature, must be exactly mathx.StateLen words, and is only
// possible on a stream at least that many draws old.
func (r *RNGState) validate(version int, label string) error {
	if len(r.State) == 0 {
		return nil
	}
	if version < 2 {
		return fmt.Errorf("nn: checkpoint version %d cannot carry a captured %s generator state (introduced in version 2)", version, label)
	}
	if len(r.State) != mathx.StateLen {
		return fmt.Errorf("nn: checkpoint %s state has %d words, want %d", label, len(r.State), mathx.StateLen)
	}
	if r.Calls < mathx.StateLen {
		return fmt.Errorf("nn: checkpoint %s state with only %d calls is impossible (a full state needs at least %d draws)", label, r.Calls, mathx.StateLen)
	}
	return nil
}

// validate checks the pricer section's internal consistency.
func (p *PricerState) validate() error {
	if len(p.History) == 0 {
		return fmt.Errorf("nn: checkpoint pricer section has an empty belief window")
	}
	width := len(p.History[0])
	for i, row := range p.History {
		if len(row) == 0 || len(row) != width {
			return fmt.Errorf("nn: checkpoint pricer history row %d has width %d, want %d", i, len(row), width)
		}
		for j, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("nn: checkpoint pricer history[%d][%d] is %v", i, j, x)
			}
		}
	}
	if len(p.Obs) != len(p.History)*width {
		return fmt.Errorf("nn: checkpoint pricer observation has %d values, want %d (%d rows × width %d)",
			len(p.Obs), len(p.History)*width, len(p.History), width)
	}
	for i, x := range p.Obs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("nn: checkpoint pricer observation element %d is %v", i, x)
		}
	}
	if p.BestSet && (math.IsNaN(p.Best) || math.IsInf(p.Best, 0)) {
		return fmt.Errorf("nn: checkpoint pricer best value %v is not finite", p.Best)
	}
	if p.Rounds < 0 || p.Updates < 0 || p.Snapshots < 0 {
		return fmt.Errorf("nn: checkpoint pricer counters negative (rounds=%d updates=%d snapshots=%d)", p.Rounds, p.Updates, p.Snapshots)
	}
	if p.UpdateEvery <= 0 {
		return fmt.Errorf("nn: checkpoint pricer update cadence %d must be positive", p.UpdateEvery)
	}
	if p.Updates > p.Rounds {
		return fmt.Errorf("nn: checkpoint pricer ran %d updates over only %d rounds", p.Updates, p.Rounds)
	}
	if p.Reward <= 0 {
		return fmt.Errorf("nn: checkpoint pricer reward kind %d unknown", p.Reward)
	}
	if math.IsNaN(p.BestTolFrac) || math.IsInf(p.BestTolFrac, 0) {
		return fmt.Errorf("nn: checkpoint pricer tolerance %v is not finite", p.BestTolFrac)
	}
	return nil
}

// validate checks the optimizer section against the parameter table: the
// moment maps must cover exactly the checkpointed parameters with
// matching lengths and finite values, and no second moment may be
// negative — v is an average of squared gradients, and Adam takes its
// square root.
func (s *OptState) validate(params map[string][]float64) error {
	if s.Algo != "adam" {
		return fmt.Errorf("nn: checkpoint optimizer %q unknown (want adam)", s.Algo)
	}
	if s.Step < 0 {
		return fmt.Errorf("nn: checkpoint optimizer step %d is negative", s.Step)
	}
	for label, moments := range map[string]map[string][]float64{"m": s.M, "v": s.V} {
		if len(moments) != len(params) {
			return fmt.Errorf("nn: checkpoint optimizer %s covers %d parameters, want %d", label, len(moments), len(params))
		}
		for name, mv := range moments {
			pv, ok := params[name]
			if !ok {
				return fmt.Errorf("nn: checkpoint optimizer %s carries unknown parameter %q", label, name)
			}
			if len(mv) != len(pv) {
				return fmt.Errorf("nn: checkpoint optimizer %s for %q has length %d, want %d", label, name, len(mv), len(pv))
			}
			if err := validateVector("optimizer "+label, name, mv); err != nil {
				return err
			}
		}
	}
	for name, v := range s.V {
		for i, x := range v {
			if x < 0 {
				return fmt.Errorf("nn: checkpoint optimizer v %q element %d is %v; a second moment cannot be negative", name, i, x)
			}
		}
	}
	return nil
}

// validateVector rejects empty vectors and non-finite values with a
// descriptive error.
func validateVector(kind, name string, v []float64) error {
	if len(v) == 0 {
		return fmt.Errorf("nn: checkpoint %s %q is empty", kind, name)
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("nn: checkpoint %s %q element %d is %v", kind, name, i, x)
		}
	}
	return nil
}

// Save writes the checkpoint as JSON (the human-readable encoding; see
// SaveBinary for the compact one). Both encodings round-trip every
// float64 bit-exactly.
func (c *Checkpoint) Save(w io.Writer) error {
	if err := c.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("nn: encoding checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint in either encoding,
// auto-detected from the leading bytes: files starting with the binary
// magic decode through the binary reader (see SaveBinary), everything
// else parses as JSON. Unknown JSON fields, unsupported versions,
// zero-length parameter vectors, non-finite values, and — for binary
// files — truncation, trailing garbage, or any bit flip (checksummed)
// are rejected with a descriptive error, so a hand-edited or corrupted
// file fails loudly instead of training on garbage.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(len(binaryMagic)); err == nil && string(magic) == binaryMagic {
		return loadBinaryCheckpoint(br)
	}
	var c Checkpoint
	dec := json.NewDecoder(br)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("nn: decoding checkpoint: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
