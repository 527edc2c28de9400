package sim

import (
	"fmt"
	"math"
	"math/rand"

	"vtmig/internal/mathx"
	"vtmig/internal/nn"
	"vtmig/internal/pomdp"
	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// OnlinePricerConfig configures the simulator's online continual-learning
// pricer: a PPO pricing agent that keeps training from live simulator
// rounds instead of being deployed frozen.
type OnlinePricerConfig struct {
	// Game is the reference game fixing the agent's interface: the
	// observation layout (one demand slot per reference VMU, prices
	// normalized over [Cost, PMax], demands over the game's demand scale)
	// and the action interval [Cost, PMax]. A warm-started agent must have
	// been trained on a pomdp.GameEnv over this game; for a cold start it
	// is also the source of the random initial history.
	Game *stackelberg.Game
	// HistoryLen is L, the number of past rounds in the observation
	// (paper: 4). It must match the warm-start agent's training value.
	HistoryLen int
	// Agent, when non-nil, warm-starts the pricer from an offline-trained
	// learner (e.g. experiments.TrainResult.Agent). The pricer owns and
	// keeps mutating the agent from here on — hand it a dedicated
	// instance, not one shared with a frozen pricer. Nil cold-starts a
	// fresh learner from PPO.
	Agent *rl.PPO
	// PPO configures the cold-start learner (ignored under warm start).
	// The zero value selects rl.DefaultPPOConfig(); Seed overrides
	// PPO.Seed either way.
	PPO rl.PPOConfig
	// UpdateEvery is |I|: an optimization phase runs whenever this many
	// live rounds have been collected. Zero selects the paper's 20.
	UpdateEvery int
	// Reward selects the learning signal computed from each live round at
	// the sampled price. The zero value selects pomdp.RewardShaped — the
	// round's leader utility normalized by that round's closed-form
	// equilibrium utility, a dense signal that stays comparable across
	// rounds of varying size and remaining bandwidth. pomdp.RewardBinary
	// applies Eq. (12) against the best live utility seen so far.
	Reward pomdp.RewardKind
	// BestTolFrac is the RewardBinary tolerance band, with the
	// pomdp.Config.BestTolFrac semantics (0 default band, negative exact).
	BestTolFrac float64
	// Seed drives the random initial history and the cold-start learner.
	// Zero selects 1.
	Seed int64
	// SnapshotEvery, when positive, captures a full resume checkpoint
	// after every SnapshotEvery-th completed optimization phase and hands
	// it to OnSnapshot. The checkpoint is exactly what
	// OnlinePricer.Snapshot produces: the learner's weights, Adam moments,
	// and captured RNG generator state, plus the pricer section — the
	// encoder's belief window, the current observation, the running-best
	// reward reference, and the stream counters — so
	// NewOnlinePricerFromCheckpoint resumes the online run bit-identically
	// (determinism contract rule 6). Snapshots land exactly on phase
	// boundaries, where the learning buffer is empty. Zero disables
	// mid-run snapshots.
	SnapshotEvery int
	// OnSnapshot receives the mid-run resume checkpoints; required when
	// SnapshotEvery is positive. It runs synchronously on the pricing
	// path — defer heavy persistence work out of the callback.
	OnSnapshot func(*nn.Checkpoint)
}

// withDefaults resolves the zero-value conveniences.
func (c OnlinePricerConfig) withDefaults() OnlinePricerConfig {
	if c.HistoryLen == 0 {
		c.HistoryLen = 4
	}
	if c.UpdateEvery == 0 {
		c.UpdateEvery = 20
	}
	if c.Reward == 0 {
		c.Reward = pomdp.RewardShaped
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Agent == nil && c.PPO.Epochs == 0 {
		// Epochs is positive in every valid PPO configuration, so zero
		// marks the config as unset.
		c.PPO = rl.DefaultPPOConfig()
	}
	return c
}

// Validate reports whether the configuration is usable (after the
// zero-value defaults are applied).
func (c OnlinePricerConfig) Validate() error {
	c = c.withDefaults()
	if c.Game == nil {
		return fmt.Errorf("sim: online pricer needs a reference game")
	}
	if err := c.Game.Validate(); err != nil {
		return err
	}
	if c.HistoryLen < 0 {
		// Zero already defaulted to the paper's value above, so only
		// negatives reach this check.
		return fmt.Errorf("sim: online pricer history length %d must not be negative", c.HistoryLen)
	}
	if c.UpdateEvery < 0 {
		return fmt.Errorf("sim: online pricer update interval %d must not be negative", c.UpdateEvery)
	}
	switch c.Reward {
	case pomdp.RewardBinary, pomdp.RewardShaped:
	default:
		return fmt.Errorf("sim: online pricer reward kind %d unknown", int(c.Reward))
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("sim: online pricer snapshot cadence %d must be non-negative", c.SnapshotEvery)
	}
	if c.SnapshotEvery > 0 && c.OnSnapshot == nil {
		return fmt.Errorf("sim: online pricer SnapshotEvery=%d needs an OnSnapshot callback", c.SnapshotEvery)
	}
	return nil
}

// OnlinePricer is the online continual-learning MSP pricing strategy: a
// PPO agent deployed like the frozen DRL pricer — it posts the
// deterministic (mean) price of the current belief state — whose belief
// window is driven by the live rounds themselves and whose policy keeps
// training from them.
//
// Each pricing round contributes one learning transition: the agent
// samples a stochastic price at the current observation, the round's
// actual game is evaluated at that sampled price (the followers'
// best-response demands and the resulting leader utility), the outcome is
// scored into a reward and recorded into the observation window, and the
// transition enters a rl.StreamCollector, which runs a PPO optimization
// phase every UpdateEvery rounds. The stochastic sample
// drives the belief window — exactly like the frozen pricer's readout —
// so the observation stream stays on the policy's own distribution while
// the posted price remains the deterministic mean.
//
// Determinism (contract rule 5): the simulator feeds rounds serially, the
// pricer consumes the learner RNG in round order, and every update runs
// through the rule-1 fixed-order kernels — so a fixed simulator seed
// (plus a warm-start agent from a fixed training seed) yields a
// bit-identical sim.Report and bit-identical final weights under any
// GOMAXPROCS.
type OnlinePricer struct {
	agent       *rl.PPO
	col         *rl.StreamCollector
	enc         *pomdp.Encoder
	tracker     *pomdp.BestTracker
	reward      pomdp.RewardKind
	bestTolFrac float64

	// mid-run snapshot hooks (see OnlinePricerConfig).
	snapshotEvery int
	onSnapshot    func(*nn.Checkpoint)
	snapshots     int

	obs []float64 // current observation (copy; encoder rows rotate under it)

	evalScratch  stackelberg.EvalScratch
	solveScratch stackelberg.EvalScratch
}

var _ Pricer = (*OnlinePricer)(nil)

// NewOnlinePricer builds the online continual-learning pricer.
func NewOnlinePricer(cfg OnlinePricerConfig) (*OnlinePricer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	enc, err := pomdp.NewGameEncoder(cfg.HistoryLen, cfg.Game)
	if err != nil {
		return nil, err
	}
	agent := cfg.Agent
	if agent == nil {
		ppoCfg := cfg.PPO
		ppoCfg.Seed = cfg.Seed
		agent = rl.NewPPO(enc.ObsDim(), 1, []float64{cfg.Game.Cost}, []float64{cfg.Game.PMax}, ppoCfg)
	}
	p := &OnlinePricer{
		agent:         agent,
		col:           rl.NewStreamCollector(agent, cfg.UpdateEvery),
		enc:           enc,
		tracker:       pomdp.NewBestTracker(cfg.BestTolFrac),
		reward:        cfg.Reward,
		bestTolFrac:   cfg.BestTolFrac,
		snapshotEvery: cfg.SnapshotEvery,
		onSnapshot:    cfg.OnSnapshot,
		obs:           make([]float64, enc.ObsDim()),
	}
	if err := p.checkAgent(cfg); err != nil {
		return nil, err
	}
	p.warmHistory(cfg)
	return p, nil
}

// NewOnlinePricerFromCheckpoint resumes an online pricer from a
// checkpoint written by OnlinePricer.Snapshot (directly or through the
// OnSnapshot hook): the learner's full training state is restored and
// the belief window, current observation, running-best reward
// reference, and stream counters pick up exactly where the snapshotted
// pricer left off, so continuing the same simulation stream is
// bit-identical to never having stopped (determinism contract rule 6).
//
// cfg.Agent must be nil — the agent is rebuilt from the checkpoint.
// Zero-valued HistoryLen, UpdateEvery, Reward, and BestTolFrac adopt
// the checkpointed values; explicitly set ones must match them. Seed
// only matters for a restored pricer through PPO cold-start defaults
// and is otherwise ignored: the warm-history stage is skipped and the
// learner RNG continues the checkpointed stream.
func NewOnlinePricerFromCheckpoint(cfg OnlinePricerConfig, ck *nn.Checkpoint) (*OnlinePricer, error) {
	if ck == nil || ck.Pricer == nil {
		return nil, fmt.Errorf("sim: checkpoint carries no pricer section; only checkpoints written by OnlinePricer.Snapshot can resume an online run")
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	if cfg.Agent != nil {
		return nil, fmt.Errorf("sim: OnlinePricerConfig.Agent must be nil when resuming from a checkpoint")
	}
	ps := ck.Pricer
	if cfg.HistoryLen == 0 {
		cfg.HistoryLen = len(ps.History)
	} else if cfg.HistoryLen != len(ps.History) {
		return nil, fmt.Errorf("sim: config history length %d, checkpoint belief window has %d rounds", cfg.HistoryLen, len(ps.History))
	}
	if cfg.UpdateEvery == 0 {
		cfg.UpdateEvery = ps.UpdateEvery
	} else if cfg.UpdateEvery != ps.UpdateEvery {
		return nil, fmt.Errorf("sim: config update interval %d, checkpoint ran with %d", cfg.UpdateEvery, ps.UpdateEvery)
	}
	if cfg.Reward == 0 {
		cfg.Reward = pomdp.RewardKind(ps.Reward)
	} else if int(cfg.Reward) != ps.Reward {
		return nil, fmt.Errorf("sim: config reward kind %d, checkpoint ran with %d", int(cfg.Reward), ps.Reward)
	}
	if cfg.BestTolFrac == 0 {
		cfg.BestTolFrac = ps.BestTolFrac
	} else if cfg.BestTolFrac != ps.BestTolFrac {
		return nil, fmt.Errorf("sim: config best tolerance %g, checkpoint ran with %g", cfg.BestTolFrac, ps.BestTolFrac)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	enc, err := pomdp.NewGameEncoder(cfg.HistoryLen, cfg.Game)
	if err != nil {
		return nil, err
	}
	if width := len(ps.History[0]); width != 1+cfg.Game.N() {
		return nil, fmt.Errorf("sim: checkpoint belief rows have width %d, the reference game needs %d (1 price + %d demand slots) — was the checkpoint written over a different game size?",
			width, 1+cfg.Game.N(), cfg.Game.N())
	}
	ppoCfg := cfg.PPO
	ppoCfg.Seed = cfg.Seed
	agent := rl.NewPPO(enc.ObsDim(), 1, []float64{cfg.Game.Cost}, []float64{cfg.Game.PMax}, ppoCfg)
	if err := agent.Restore(ck); err != nil {
		return nil, err
	}
	p := &OnlinePricer{
		agent:         agent,
		col:           rl.NewStreamCollector(agent, cfg.UpdateEvery),
		enc:           enc,
		tracker:       pomdp.NewBestTracker(cfg.BestTolFrac),
		reward:        cfg.Reward,
		bestTolFrac:   cfg.BestTolFrac,
		snapshotEvery: cfg.SnapshotEvery,
		onSnapshot:    cfg.OnSnapshot,
		snapshots:     ps.Snapshots,
		obs:           make([]float64, enc.ObsDim()),
	}
	if err := p.enc.Restore(ps.History); err != nil {
		return nil, err
	}
	copy(p.obs, ps.Obs)
	if ps.BestSet {
		p.tracker.SetBest(ps.Best)
	}
	if err := p.col.Restore(ps.Rounds, ps.Updates); err != nil {
		return nil, err
	}
	return p, nil
}

// checkAgent verifies a warm-start agent against the reference
// interface. Each dimension mismatch has a named error pointing at the
// configuration knob that causes it.
func (p *OnlinePricer) checkAgent(cfg OnlinePricerConfig) error {
	if got, want := p.agent.ObsDim(), p.enc.ObsDim(); got != want {
		return fmt.Errorf("sim: warm-start agent expects observation dim %d, but history length %d over the reference game gives %d — HistoryLen (or the game size) differs from the agent's training configuration",
			got, cfg.HistoryLen, want)
	}
	if got := p.agent.ActDim(); got != 1 {
		return fmt.Errorf("sim: online pricer needs a 1-dimensional price action, agent has %d", got)
	}
	return nil
}

// warmHistory fills the observation window with HistoryLen random rounds
// on the reference game — the paper's "initial stage", mirroring
// pomdp.GameEnv.Reset — and captures the initial observation.
func (p *OnlinePricer) warmHistory(cfg OnlinePricerConfig) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.HistoryLen; i++ {
		price := cfg.Game.Cost + rng.Float64()*(cfg.Game.PMax-cfg.Game.Cost)
		eq := cfg.Game.EvaluateInto(&p.evalScratch, price)
		p.enc.Record(eq.Price, eq.Demands)
	}
	copy(p.obs, p.enc.Obs())
}

// Name implements Pricer.
func (p *OnlinePricer) Name() string { return "online-drl" }

// PriceFor implements Pricer: it posts the deterministic (mean) price for
// the current belief state and folds the round into the learning stream
// (see the type comment). The round's actual game g is consulted only as
// the MSP's own model of the followers — the incomplete-information
// setting of the paper is preserved: the agent still observes nothing but
// the (price, demand) history window.
func (p *OnlinePricer) PriceFor(g *stackelberg.Game) float64 {
	return p.PriceForPrepped(g, p.PrepQuote(g, &p.solveScratch))
}

// QuotePrep carries the pure, pricer-state-independent share of pricing
// one round: today, the round's closed-form equilibrium leader utility —
// the shaped-reward normalizer — which depends only on the game, never on
// the belief window, the learner, or the RNG.
type QuotePrep struct {
	// OracleUtility is the round's oracle (closed-form Stackelberg) leader
	// utility; meaningful only when HasOracle.
	OracleUtility float64
	// HasOracle records whether the prework included the oracle solve
	// (it does exactly when the pricer learns under the shaped reward).
	HasOracle bool
}

// PrepQuote computes the prework for pricing g: everything
// PriceForPrepped needs that is a pure function of the round's game. It
// never touches the pricer's mutable state and consumes no RNG, so a
// batching front end may run it for a whole batch, reusing one scratch,
// before the serial core consumes the results in arrival order.
func (p *OnlinePricer) PrepQuote(g *stackelberg.Game, scratch *stackelberg.EvalScratch) QuotePrep {
	if p.reward != pomdp.RewardShaped {
		return QuotePrep{}
	}
	return QuotePrep{OracleUtility: g.SolveInto(scratch).MSPUtility, HasOracle: true}
}

// PriceForPrepped is PriceFor with the pure prework hoisted out:
// PriceFor(g) ≡ PriceForPrepped(g, p.PrepQuote(g, scratch)) bit for bit.
// Everything that remains — the policy forward pass and stochastic
// sample, the follower best-response at the sampled price, the belief
// window update, and the learning transition — chains through the
// pricer's mutable state and MUST apply strictly serially in arrival
// order (contract rules 5 and 8).
func (p *OnlinePricer) PriceForPrepped(g *stackelberg.Game, prep QuotePrep) float64 {
	if p.reward == pomdp.RewardShaped && !prep.HasOracle {
		panic("sim: PriceForPrepped under the shaped reward needs a PrepQuote with the oracle solve")
	}
	raw, envAct, logP, value, meanEnv := p.agent.SelectActionWithMean(p.obs)
	price := meanEnv[0]

	// Learning transition at the sampled price.
	sampled := mathx.Clamp(envAct[0], g.Cost, g.PMax)
	eq := g.EvaluateInto(&p.evalScratch, sampled)
	reward := p.tracker.Observe(eq.MSPUtility)
	if p.reward == pomdp.RewardShaped {
		if prep.OracleUtility > 0 {
			reward = eq.MSPUtility / prep.OracleUtility
		} else {
			reward = eq.MSPUtility
		}
	}

	p.enc.Record(eq.Price, eq.Demands)
	next := p.enc.Obs()
	_, ran := p.col.Add(p.obs, raw, logP, reward, value, false, next)
	copy(p.obs, next)
	if ran {
		p.maybeSnapshot()
	}
	return price
}

// maybeSnapshot fires the mid-run snapshot hook when an optimization
// phase just completed and the cadence hits. The learning buffer is empty
// here, so the checkpoint resumes the run bit-identically.
func (p *OnlinePricer) maybeSnapshot() {
	if p.snapshotEvery <= 0 || p.col.Updates()%p.snapshotEvery != 0 {
		return
	}
	// Count the snapshot before capturing it, so the checkpoint records a
	// counter that includes itself and a resumed pricer continues the
	// numbering exactly.
	p.snapshots++
	ck, err := p.Snapshot()
	if err != nil {
		// Snapshot only fails mid-segment (impossible here — a phase just
		// completed) or on duplicate parameter names — a programming error
		// in the network construction.
		panic(fmt.Sprintf("sim: online pricer snapshot: %v", err))
	}
	p.onSnapshot(ck)
}

// Snapshot captures the pricer's complete resume state: the learner's
// full training checkpoint (weights, Adam moments, captured RNG
// generator state) plus the pricer section — the encoder's belief
// window (oldest round first), the current observation, the
// running-best reward reference, and the stream counters.
// NewOnlinePricerFromCheckpoint rebuilds a pricer from it that continues
// the run bit-identically (determinism contract rule 6).
//
// Snapshots are only valid on optimization-phase boundaries: pending
// transitions live in the on-policy learning buffer and cannot be
// checkpointed, so Snapshot errors while any are staged (Flush first,
// or snapshot through the SnapshotEvery hook, which always lands on a
// boundary).
func (p *OnlinePricer) Snapshot() (*nn.Checkpoint, error) {
	total, updates, err := p.col.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("sim: online pricer snapshot: %w", err)
	}
	ck, err := p.agent.Snapshot()
	if err != nil {
		return nil, err
	}
	ck.Pricer = &nn.PricerState{
		History:     p.enc.Snapshot(),
		Obs:         append([]float64(nil), p.obs...),
		Rounds:      total,
		Updates:     updates,
		Snapshots:   p.snapshots,
		UpdateEvery: p.col.UpdateEvery(),
		Reward:      int(p.reward),
		BestTolFrac: p.bestTolFrac,
	}
	if best := p.tracker.Best(); !math.IsInf(best, -1) {
		ck.Pricer.Best, ck.Pricer.BestSet = best, true
	}
	return ck, nil
}

// Flush closes the current partial learning segment with one final
// optimization phase (bootstrapping the value of the current belief
// state) and reports whether anything was pending. Transitions staged
// since the last phase are otherwise retained and consumed once later
// rounds complete the segment — appropriate while the pricer keeps
// serving; call Flush when a deployment ends and the trailing experience
// would be discarded with the pricer (RunOnlineStudy and vtmig-sim do).
// A flush that runs a phase counts toward the snapshot cadence like any
// other optimization phase.
func (p *OnlinePricer) Flush() (rl.UpdateStats, bool) {
	stats, ran := p.col.Flush(false, p.obs)
	if ran {
		p.maybeSnapshot()
	}
	return stats, ran
}

// Snapshots returns the number of mid-run checkpoints handed to
// OnSnapshot so far.
func (p *OnlinePricer) Snapshots() int { return p.snapshots }

// Agent exposes the (continually trained) learner, e.g. to snapshot its
// weights after a run.
func (p *OnlinePricer) Agent() *rl.PPO { return p.agent }

// Updates returns the number of optimization phases run so far.
func (p *OnlinePricer) Updates() int { return p.col.Updates() }

// UpdateEvery returns the effective optimization cadence in live rounds.
func (p *OnlinePricer) UpdateEvery() int { return p.col.UpdateEvery() }

// Rounds returns the number of live rounds learned from so far.
func (p *OnlinePricer) Rounds() int { return p.col.Total() }

// BestUtility returns the best live leader utility observed so far.
func (p *OnlinePricer) BestUtility() float64 { return p.tracker.Best() }
