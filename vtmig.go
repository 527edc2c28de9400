package vtmig

import (
	"io"

	"vtmig/internal/aotm"
	"vtmig/internal/baselines"
	"vtmig/internal/channel"
	"vtmig/internal/experiments"
	"vtmig/internal/nn"
	"vtmig/internal/pomdp"
	"vtmig/internal/rl"
	"vtmig/internal/scenario"
	"vtmig/internal/serve"
	"vtmig/internal/sim"
	"vtmig/internal/stackelberg"
)

// Core game types.
type (
	// VMU is one follower of the Stackelberg game (a vehicular metaverse
	// user whose twin must migrate).
	VMU = stackelberg.VMU
	// Game is the AoTM-based Stackelberg pricing game.
	Game = stackelberg.Game
	// Equilibrium is a solved game outcome.
	Equilibrium = stackelberg.Equilibrium
	// EvalScratch backs the allocation-free equilibrium evaluation path:
	// pass one to Game.EvaluateInto / Game.SolveInto in loops that solve
	// or score many prices (sweeps, per-round scoring) to avoid
	// per-report slice allocations. Reports returned through a scratch
	// alias it and are overwritten by the next call; Clone them to
	// retain.
	EvalScratch = stackelberg.EvalScratch
	// ChannelParams is the RSU-to-RSU wireless link model.
	ChannelParams = channel.Params
)

// Learning types.
type (
	// DRLConfig bundles the training hyper-parameters of Algorithm 1.
	DRLConfig = experiments.DRLConfig
	// TrainResult is a trained MSP agent with its learning history.
	TrainResult = experiments.TrainResult
	// PPO is the proximal-policy-optimization learner.
	PPO = rl.PPO
	// GameEnv is the pricing game as a POMDP.
	GameEnv = pomdp.GameEnv
	// Checkpoint is a complete training checkpoint. TrainResult.Checkpoint,
	// or a file written by vtmig-train -checkpoint, carries weights,
	// per-parameter Adam moments and step count, the policy RNG stream
	// (with the generator state itself once the stream is long enough to
	// need it, so restore is exact and O(1) regardless of stream length),
	// every training-environment stream's state, and the episode count, so
	// ResumeTraining continues the run bit-identically (determinism
	// contract rule 6). A checkpoint written by OnlinePricer.Snapshot
	// additionally carries the pricer section — belief window, current
	// observation, best tracker, stream counters — for
	// NewOnlinePricerFromCheckpoint. Checkpoints are written (SaveBinary,
	// WriteFile) and read (LoadCheckpoint) in one compact, CRC-checked
	// binary format.
	Checkpoint = nn.Checkpoint
)

// Simulation types.
type (
	// SimConfig parameterizes the end-to-end vehicular simulator.
	SimConfig = sim.Config
	// SimReport aggregates one simulation run.
	SimReport = sim.Report
	// SimPricer is the simulator's MSP pricing-strategy interface.
	SimPricer = sim.Pricer
	// OnlinePricer is the online continual-learning DRL pricing strategy:
	// a PPO agent that keeps training from live simulator rounds.
	OnlinePricer = sim.OnlinePricer
	// OnlinePricerConfig configures NewOnlinePricer.
	OnlinePricerConfig = sim.OnlinePricerConfig
	// OnlineStudyConfig parameterizes RunOnlineStudy.
	OnlineStudyConfig = experiments.OnlineStudyConfig
	// OnlineStudy compares the oracle, frozen-DRL, and online-DRL pricers
	// on one fixed simulation scenario.
	OnlineStudy = experiments.OnlineStudy
	// PricerSpec is the declarative form of an MSP pricing strategy — a
	// registered name plus parameters, with zero-valued fields adopting
	// defaults or checkpoint metadata. Build one with NewPricerFromSpec.
	PricerSpec = sim.PricerSpec
	// PricerBuildOptions carries host hooks for NewPricerFromSpec: the
	// fallback seed, snapshot plumbing, and logging.
	PricerBuildOptions = sim.PricerBuildOptions
)

// Scenario types (the declarative workload layer behind vtmig-sim
// -scenario).
type (
	// Scenario is a named, self-contained description of one simulation —
	// road world, fleet, churn, outages, demand cycle, and pricer —
	// loadable from strict JSON files (LoadScenario) and compiled
	// deterministically into a SimConfig. Zero-valued fields adopt the
	// DefaultSimConfig values, so a scenario states only what it changes
	// about the default highway world.
	Scenario = scenario.Scenario
	// ScenarioMobility selects and parameterizes the scenario's road
	// world: "highway" (circular road) or "grid" (Manhattan street grid).
	ScenarioMobility = scenario.Mobility
)

// LoadScenario reads, parses, and fully validates a .json scenario file.
// Loading is strict — other extensions, unknown fields, malformed
// syntax, and invalid values all error — so a loaded scenario always
// compiles.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// RunScenario compiles a scenario (expanding generator blocks, building
// its pricer through the registry — learning pricers may train here) and
// runs the simulation it describes.
func RunScenario(s *Scenario, opts PricerBuildOptions) (SimReport, error) {
	cfg, err := s.Compile(opts)
	if err != nil {
		return SimReport{}, err
	}
	return RunSimulation(cfg)
}

// Serving types (the journaled online-pricing daemon behind vtmig-serve).
type (
	// ServeConfig parameterizes OpenServer: the durable state directory,
	// the reference game, and the learner/rotation knobs.
	ServeConfig = serve.Config
	// ServeServer is the daemon core — one online pricer, one intake
	// journal, one serializing intake goroutine. Quotes flow through
	// Quote (or the HTTP handler from Handler); every accepted round is
	// journaled before it is applied and full checkpoints rotate at
	// optimization-phase boundaries, so reopening the state directory
	// after a crash or clean stop rebuilds the exact serving state by
	// checkpoint restore + journal replay (determinism contract rule 5 at
	// a process boundary, restored under rule 6's strictly-or-not-at-all).
	ServeServer = serve.Server
	// QuoteRequest is one pricing round to quote: the migrating VMUs and
	// optionally the round's channel distance and bandwidth pool.
	QuoteRequest = serve.QuoteRequest
	// QuoteVMU is one follower of a quoted round.
	QuoteVMU = serve.QuoteVMU
	// QuoteResponse is the posted price plus the learner's position.
	QuoteResponse = serve.QuoteResponse
	// ServeStats is a point-in-time view of the serving state.
	ServeStats = serve.Stats
	// ServeReplicaConfig parameterizes OpenReplica: the primary's state
	// directory plus the reference game, learner architecture, and
	// refresh cadence.
	ServeReplicaConfig = serve.ReplicaConfig
	// ServeReplica is a quote-only read replica fed by the primary's
	// published checkpoints: it freezes the latest one into a
	// FrozenPricer and answers every quote with exactly the price the
	// primary posted for its first round after that snapshot
	// (determinism contract rule 8 across processes). The primary
	// publishes checkpoint k at rotation k+1's boundary, so a replica
	// trails the primary's latest rotation by one. Replicas never write to the state
	// directory; their staleness is visible in Stats.
	ServeReplica = serve.Replica
	// ServeReplicaStats is a point-in-time view of a replica: the frozen
	// snapshot's ordinals plus checkpoint age and refresh counters.
	ServeReplicaStats = serve.ReplicaStats
	// FrozenPricer is the read-only pricing strategy a replica serves: a
	// checkpointed belief state's deterministic mean-price readout — no
	// RNG, no learning, O(1) per quote and safe for concurrent use.
	FrozenPricer = sim.FrozenPricer
)

// OpenServer builds (or recovers) the journaled serving state in
// cfg.Dir and starts the intake goroutine. See ServeServer.
func OpenServer(cfg ServeConfig) (*ServeServer, error) { return serve.Open(cfg) }

// OpenReplica opens a read-only serving replica over a primary's state
// directory. See ServeReplica.
func OpenReplica(cfg ServeReplicaConfig) (*ServeReplica, error) { return serve.OpenReplica(cfg) }

// NewFrozenPricerFromCheckpoint freezes a pricer checkpoint (one written
// by OnlinePricer.Snapshot or rotated by the serving layer) into the
// read-only FrozenPricer a replica serves. Zero-valued config fields
// adopt the checkpointed hyper-parameters; explicitly set ones must
// match them, and cfg.Agent must be nil.
func NewFrozenPricerFromCheckpoint(cfg OnlinePricerConfig, ck *Checkpoint) (*FrozenPricer, error) {
	return sim.NewFrozenPricerFromCheckpoint(cfg, ck)
}

// NewGame constructs a validated Stackelberg game. Data sizes are in
// units of 100 MB (use FromMB), bandwidth in MHz.
func NewGame(vmus []VMU, ch ChannelParams, cost, pmax, bmax float64) (*Game, error) {
	return stackelberg.NewGame(vmus, ch, cost, pmax, bmax)
}

// DefaultGame returns the paper's two-VMU benchmark (α=5, D={200,100} MB,
// C=5, pmax=50, Bmax=0.5 MHz).
func DefaultGame() *Game { return stackelberg.DefaultGame() }

// DefaultChannel returns the paper's RSU channel parameters (40 dBm,
// −20 dB unit gain, 500 m, ε=2, −150 dBm noise).
func DefaultChannel() ChannelParams { return channel.DefaultParams() }

// FromMB converts megabytes into the model's 100 MB data unit.
func FromMB(mb float64) float64 { return aotm.FromMB(mb) }

// AoTM computes the Age of Twin Migration A = D/γ (Eq. 1).
func AoTM(dataSize, rate float64) float64 { return aotm.AoTM(dataSize, rate) }

// Immersion computes the VMU immersion G = α·ln(1 + 1/A).
func Immersion(alpha, age float64) float64 { return aotm.Immersion(alpha, age) }

// DefaultDRLConfig returns the training configuration aligned with the
// paper's Section V (L=4, K=100, |I|=20, M=10, two 64-unit hidden layers).
func DefaultDRLConfig() DRLConfig { return experiments.DefaultDRLConfig() }

// TrainAgent trains the MSP's PPO pricing agent on a game under
// incomplete information (Algorithm 1) and evaluates the learned policy.
// The result carries a full training checkpoint (TrainResult.Checkpoint)
// for persistence and resume.
func TrainAgent(game *Game, cfg DRLConfig) (*TrainResult, error) {
	return experiments.TrainAgent(game, cfg)
}

// ResumeTraining continues a checkpointed training run to cfg.Episodes
// total episodes. The configuration must match the checkpointed training
// (checked via its fingerprint; cfg.Seed is taken from the checkpoint),
// and the result is bit-identical to a run that never stopped — same
// final weights and evaluation — under any GOMAXPROCS (determinism
// contract rule 6).
func ResumeTraining(game *Game, cfg DRLConfig, ck *Checkpoint) (*TrainResult, error) {
	return experiments.ResumeAgent(game, cfg, ck)
}

// LoadCheckpoint reads and strictly validates a checkpoint in the binary
// format Checkpoint.SaveBinary writes. Other formats (JSON included) and
// versions, missing sections, unknown sections, mis-sized or empty
// parameter vectors, non-finite values, truncation, and bit corruption
// (CRC-checked) are rejected with a descriptive error.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	return nn.LoadCheckpoint(r)
}

// RunBaseline plays one K-round pricing episode with the named baseline
// ("random", "greedy", "oracle", "qlearning", or "identification") and
// returns its mean MSP utility.
func RunBaseline(game *Game, name string, rounds int, seed int64) (float64, error) {
	var p baselines.Policy
	switch name {
	case "random":
		p = baselines.NewRandom(game.Cost, game.PMax, seed)
	case "greedy":
		p = baselines.NewGreedy(game.Cost, game.PMax, 0.1, seed)
	case "oracle":
		p = baselines.NewOracle(game)
	case "qlearning":
		p = baselines.NewQLearning(game.Cost, game.PMax, 46, 1.0, 1.0, 0.99, seed)
	case "identification":
		p = baselines.NewIdentification(game.Cost, game.PMax, game.Cost)
	default:
		return 0, errUnknownBaseline(name)
	}
	return baselines.RunEpisode(game, p, rounds).MeanUtility, nil
}

// DefaultSimConfig returns a 6-vehicle highway scenario aligned with the
// paper's parameter ranges.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// RunSimulation executes the end-to-end vehicular-metaverse simulation.
func RunSimulation(cfg SimConfig) (SimReport, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return SimReport{}, err
	}
	return s.Run(), nil
}

// NewPricerFromSpec builds the pricer a declarative spec describes, via
// the registry: "oracle", "fixed", "random", "drl", and "online" (the
// learning pricers are registered by the experiments layer, which this
// package links in). Scenario files and the CLIs describe pricers the
// same way, so they all share one name→pricer wiring.
func NewPricerFromSpec(spec PricerSpec, opts PricerBuildOptions) (SimPricer, error) {
	return sim.NewPricerFromSpec(spec, opts)
}

// RegisteredPricers lists the pricer names NewPricerFromSpec accepts.
func RegisteredPricers() []string { return sim.RegisteredPricers() }

// NewOnlinePricer builds the simulator's online continual-learning DRL
// pricer: warm-started from an offline TrainResult agent, or learning
// from scratch when cfg.Agent is nil.
func NewOnlinePricer(cfg OnlinePricerConfig) (*OnlinePricer, error) {
	return sim.NewOnlinePricer(cfg)
}

// NewOnlinePricerFromCheckpoint resumes an online pricer from a
// checkpoint written by OnlinePricer.Snapshot (or its SnapshotEvery
// hook): the learner's full training state plus the belief window,
// current observation, best tracker, and stream counters are restored,
// so continuing the same simulation stream is bit-identical to never
// having stopped (determinism contract rule 6). Zero-valued config
// fields adopt the checkpointed hyper-parameters; explicitly set ones
// must match them.
func NewOnlinePricerFromCheckpoint(cfg OnlinePricerConfig, ck *Checkpoint) (*OnlinePricer, error) {
	return sim.NewOnlinePricerFromCheckpoint(cfg, ck)
}

// DefaultOnlineStudyConfig returns the frozen-vs-online comparison over
// the default simulation scenario with a small offline budget.
func DefaultOnlineStudyConfig() OnlineStudyConfig {
	return experiments.DefaultOnlineStudyConfig()
}

// RunOnlineStudy runs the identical fixed-seed simulation scenario under
// the oracle, frozen-DRL, warm-started online, and cold-started online
// pricers and compares their leader economics.
func RunOnlineStudy(cfg OnlineStudyConfig) (*OnlineStudy, error) {
	return experiments.RunOnlineStudy(cfg)
}
