package sim

import (
	"fmt"

	"vtmig/internal/mat"
	"vtmig/internal/nn"
	"vtmig/internal/pomdp"
	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// FrozenPricer is a read-only deployment view of an online pricer's
// state: it posts the deterministic (mean) price of a frozen belief
// window and never learns. The readout is evaluated once at construction
// through the no-RNG evaluation entry (rl.PPO.MeanActionBatch on one
// row, the same forward pass as the live pricer's one-row act — contract
// rule 1), so every quote afterwards is a constant read: the
// pricer is immutable, safe for unbounded concurrent use, and answers
// with exactly the price the live pricer would post next at the same
// state. That is what lets checkpoint-fed read replicas
// (serve.OpenReplica) serve quote-only traffic at arbitrary fan-out.
//
// The posted price deliberately ignores the quoted game beyond the
// reference interface — the live pricer's deterministic readout depends
// only on its belief window, never on the round's game (the
// incomplete-information setting of the paper) — so callers clamp to the
// round's [Cost, PMax] exactly like they do for the live pricer.
type FrozenPricer struct {
	price     float64
	rounds    int
	updates   int
	snapshots int
}

var _ Pricer = (*FrozenPricer)(nil)

// NewFrozenPricerFromCheckpoint builds a frozen pricer from a checkpoint
// written by OnlinePricer.Snapshot. The checkpoint must validate like any
// other, but only the policy weights (rl.PPO.RestoreWeights) and the
// pricer section are consulted: the optimizer and RNG sections matter
// only to training, which a frozen pricer never does. cfg follows the
// NewOnlinePricerFromCheckpoint conventions: Agent must be nil, a zero
// HistoryLen adopts the checkpointed belief window, an explicitly set one
// must match it, and cfg.PPO must describe the checkpointed learner's
// architecture (hidden sizes; the training hyper-parameters are
// irrelevant to a frozen readout).
func NewFrozenPricerFromCheckpoint(cfg OnlinePricerConfig, ck *nn.Checkpoint) (*FrozenPricer, error) {
	if ck == nil || ck.Pricer == nil {
		return nil, fmt.Errorf("sim: checkpoint carries no pricer section; only checkpoints written by OnlinePricer.Snapshot can freeze an online run")
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	if cfg.Agent != nil {
		return nil, fmt.Errorf("sim: OnlinePricerConfig.Agent must be nil when freezing from a checkpoint")
	}
	ps := ck.Pricer
	if cfg.HistoryLen == 0 {
		cfg.HistoryLen = len(ps.History)
	} else if cfg.HistoryLen != len(ps.History) {
		return nil, fmt.Errorf("sim: config history length %d, checkpoint belief window has %d rounds", cfg.HistoryLen, len(ps.History))
	}
	if cfg.UpdateEvery == 0 {
		cfg.UpdateEvery = ps.UpdateEvery
	}
	if cfg.Reward == 0 {
		cfg.Reward = pomdp.RewardKind(ps.Reward)
	}
	if cfg.BestTolFrac == 0 {
		cfg.BestTolFrac = ps.BestTolFrac
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	enc, err := pomdp.NewGameEncoder(cfg.HistoryLen, cfg.Game)
	if err != nil {
		return nil, err
	}
	if len(ps.History) > 0 {
		if width := len(ps.History[0]); width != 1+cfg.Game.N() {
			return nil, fmt.Errorf("sim: checkpoint belief rows have width %d, the reference game needs %d (1 price + %d demand slots) — was the checkpoint written over a different game size?",
				width, 1+cfg.Game.N(), cfg.Game.N())
		}
	}
	if len(ps.Obs) != enc.ObsDim() {
		return nil, fmt.Errorf("sim: checkpoint observation has %d values, history length %d over the reference game needs %d", len(ps.Obs), cfg.HistoryLen, enc.ObsDim())
	}
	ppoCfg := cfg.PPO
	ppoCfg.Seed = cfg.Seed
	agent := rl.NewPPO(enc.ObsDim(), 1, []float64{cfg.Game.Cost}, []float64{cfg.Game.PMax}, ppoCfg)
	if err := agent.RestoreWeights(ck); err != nil {
		return nil, err
	}
	return &FrozenPricer{
		price:     frozenReadout(agent, ps.Obs),
		rounds:    ps.Rounds,
		updates:   ps.Updates,
		snapshots: ps.Snapshots,
	}, nil
}

// frozenReadout evaluates the deterministic policy mean at obs through
// the batched no-RNG entry (a 1-row batch), bit-identical to the live
// pricer's SelectActionWithMean mean readout at the same observation.
func frozenReadout(agent *rl.PPO, obs []float64) float64 {
	obsM := mat.New(1, len(obs))
	copy(obsM.Row(0), obs)
	dst := mat.New(1, agent.ActDim())
	agent.MeanActionBatch(obsM, dst)
	return dst.Row(0)[0]
}

// Name implements Pricer.
func (f *FrozenPricer) Name() string { return "frozen-online" }

// PriceFor implements Pricer: the frozen deterministic price, regardless
// of the quoted game (see the type comment). Safe for concurrent use.
func (f *FrozenPricer) PriceFor(_ *stackelberg.Game) float64 { return f.price }

// Price returns the frozen deterministic price.
func (f *FrozenPricer) Price() float64 { return f.price }

// Rounds returns the number of live rounds the frozen state had learned
// from when it was captured.
func (f *FrozenPricer) Rounds() int { return f.rounds }

// Updates returns the number of optimization phases behind the frozen
// state.
func (f *FrozenPricer) Updates() int { return f.updates }

// Snapshots returns the snapshot ordinal of the frozen state (the
// checkpoint counter including the captured one).
func (f *FrozenPricer) Snapshots() int { return f.snapshots }
