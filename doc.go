// Package vtmig is a Go reproduction of "Learning-based Incentive
// Mechanism for Task Freshness-aware Vehicular Twin Migration"
// (Zhang et al., ICDCS 2023, arXiv:2309.04929).
//
// The library implements, from scratch on the standard library:
//
//   - the Age of Twin Migration (AoTM) freshness metric and the VMU
//     immersion model (internal/aotm);
//   - the wireless substrate: path loss, SNR, spectral efficiency, and an
//     OFDMA bandwidth allocator (internal/channel);
//   - the AoTM-based Stackelberg game between a monopolist Metaverse
//     Service Provider and N Vehicular Metaverse Users, with closed-form
//     and numeric equilibrium solvers and a Definition-1 verifier
//     (internal/stackelberg);
//   - the POMDP formulation of the game under incomplete information
//     (internal/pomdp) and a full PPO/GAE deep-reinforcement-learning
//     stack, including the neural-network substrate with manual
//     backpropagation (internal/nn, internal/rl), built on an
//     allocation-free batched linear-algebra kernel layer (internal/mat);
//   - the comparison schemes (random, greedy, fixed, oracle) of the
//     evaluation (internal/baselines);
//   - pre-copy live migration, highway mobility, and an end-to-end
//     discrete-event vehicular-metaverse simulator (internal/migration,
//     internal/mobility, internal/sim), whose MSP can deploy the trained
//     agent frozen (sim.NewDRLPricer) or keep it learning online from the
//     live pricing rounds (sim.NewOnlinePricer over rl.StreamCollector);
//   - the paper's future-work extension to multiple competing MSPs
//     (internal/multimsp);
//   - a journaled online-pricing daemon (internal/serve behind
//     cmd/vtmig-serve, load-tested by cmd/vtmig-loadgen) that puts the
//     online pricer behind live HTTP traffic with audit-grade
//     crash recovery;
//   - a declarative scenario layer (internal/scenario behind vtmig-sim
//     -scenario): strict JSON/TOML workload files — Manhattan-grid
//     mobility, vehicle churn, heterogeneous vehicle classes, RSU
//     outages, day/night demand cycles — compiled deterministically into
//     simulator configurations;
//   - and a harness that regenerates every figure of the evaluation
//     (internal/experiments).
//
// This root package re-exports the most commonly used entry points so
// that typical applications only import "vtmig". The runnable programs
// live under cmd/ and examples/.
//
// # Performance architecture
//
// The training hot path is allocation-free in steady state. internal/mat
// provides destination-passing GEMM kernels (MulTo, MulABTTo,
// MulATBAddTo) whose accumulation order is fixed per destination element,
// internal/nn adds batched forward/backward passes that reuse per-layer
// scratch across minibatches, and the PPO learner pushes every minibatch
// through the network as one batched pass. On amd64 CPUs with AVX2
// (probed once from CPUID, with no flag or build tag) the GEMMs behind
// the batched passes and the Adam step run as AVX2 assembly that gives
// the same bits as the Go loops, which every other CPU runs instead.
// The Stackelberg evaluation is destination-passing as well
// (Game.EvaluateInto / Game.SolveInto over an EvalScratch), which keeps
// the per-round follower response inside the POMDP's Step free of report
// allocations. Algorithm 1's collection phase is vectorized
// (rl.VecEnv / rl.VecCollector / rl.NewVecTrainer): episode blocks step
// W independently seeded environment instances in lockstep, the policy
// is evaluated for every live env in one batched pass per round, and the
// envs then step serially in env order. The online-learning path reuses
// the same machinery: rl.StreamCollector accumulates externally produced
// transitions (the simulator's pricing rounds) into the arena-backed
// rollout and triggers the same optimization phases, so continual
// learning inside the simulator stays allocation-free in steady state
// too. Experiment fan-outs (restarts, seed studies, sweep points,
// ablation cells, online-study arms) run through a shared bounded,
// context-cancellable worker pool in internal/experiments.
//
// # Checkpointing
//
// Training state persists through a versioned checkpoint format
// (nn.Checkpoint, version 2): parameter values, per-parameter Adam
// moments and the optimizer step count, the policy RNG stream — as a
// (seed, advance-count) pair over a counting source
// (mathx.CountingSource) plus, since version 2, the generator's captured
// lagged-Fibonacci state vector, so restore is an O(1) reconstruction
// instead of an O(calls) replay — each training-environment stream's
// state (RNG position plus the running-best reference of Eq. 12), and
// training metadata (episode count, configuration fingerprint). A
// checkpoint written by sim.OnlinePricer.Snapshot additionally carries
// the version-2 pricer section: the POMDP encoder's belief window, the
// current observation, the best-price tracker, the stream-collector
// round/update counters, and the pricer hyper-parameters — everything
// sim.NewOnlinePricerFromCheckpoint needs to continue the same
// simulation stream bit-identically. Snapshots are taken at
// episode-block boundaries (rl.PPO.Snapshot, rl.Trainer.Snapshot,
// experiments.TrainResult.Checkpoint) and at online update boundaries
// (sim.OnlinePricer.Snapshot, its SnapshotEvery hook), and restores are
// strict: unknown, missing, mis-sized, empty, or non-finite entries are
// rejected before anything is applied, so a checkpoint from a different
// architecture or a hand-edited file fails loudly. Version negotiation
// is checked in both directions: version-2-only sections (RNG state
// vectors, the pricer section) are rejected on older versions, while
// legacy version-0 params-only files still load for weight-only warm
// starts (rl.PPO.RestoreWeights) and version-1 files restore through
// counted replay.
//
// Checkpoints serialize as JSON (Checkpoint.Save) or as a compact binary
// encoding (Checkpoint.SaveBinary) — "vtck" magic, little-endian version,
// tagged sections in fixed order (params, optimizer, RNG, envs, meta,
// pricer), uvarint lengths with hard caps against hostile inputs, and a
// CRC-32 trailer so truncation and bit corruption fail loudly. The
// binary form is ~2.7x smaller and an order of magnitude faster to
// encode and decode than the JSON form; nn.LoadCheckpoint auto-detects
// either encoding by the leading magic. Resume entry points:
// rl.ResumeTrainer, experiments.ResumeAgent,
// sim.NewOnlinePricerFromCheckpoint, vtmig-train -resume, vtmig-sim
// -warm-start-file (with -snapshot-every/-snapshot-out writing mid-run
// resume checkpoints).
//
// # Serving
//
// internal/serve (cmd/vtmig-serve) puts the online pricer behind a
// long-running request/response front end, layered so each concern is a
// separate, separately testable component:
//
//   - Intake: concurrent quote requests funnel through one serializing
//     intake goroutine that also forms batches at the natural queue
//     boundary — whatever requests are waiting when the loop turns (up to
//     Config.BatchMax) become one arrival-ordered batch. Learning
//     transitions therefore enter the stream strictly in arrival order —
//     rule 5 of the determinism contract applied at a process boundary.
//   - Engine: a pure pricing core that maps (state, ordered batch) to
//     (state, responses, journal entries). Per-request validation, game
//     construction, and the shaped-reward oracle solve (which consume no
//     RNG) run first for the whole batch, then the policy/belief/learning
//     pass runs strictly serially — the belief window chains each round's
//     observation through the previous round's outcome, so the serial
//     core is what makes any batch size bit-identical to one-at-a-time
//     intake (contract rule 8 below).
//   - Persistence: every accepted round is staged to a JSONL write-ahead
//     journal and the whole batch is flushed in one write before any of
//     its quotes is acknowledged (acknowledged ⇒ durable), while the
//     pricer's SnapshotEvery hook rotates full binary checkpoints at
//     optimization-phase boundaries, truncating the journal to extend the
//     new checkpoint. The journal header binds its checkpoint by snapshot
//     ordinal and file CRC-32 plus a fingerprint of the reference game,
//     so recovery is rule 6's strictly-or-not-at-all: reopening the state
//     directory restores the bound checkpoint and replays the journaled
//     rounds through the identical engine path — same quotes, same
//     learner weights, bit for bit — while a journal whose checkpoint is
//     missing, mismatched, or corrupt refuses loudly instead of
//     cold-starting (FuzzJournalRecover drives hostile journal bytes
//     through the full recovery path). The only tolerated irregularity is
//     a torn trailing journal line (a crash mid-append): that quote was
//     never acknowledged, so dropping it reconstructs exactly the state
//     every answered quote saw.
//   - Read replicas: serve.OpenReplica (vtmig-serve -replica-of) scales
//     quote reads horizontally by freezing the primary's latest rotated
//     checkpoint into a sim.FrozenPricer — the deterministic mean-price
//     readout of the checkpointed belief state, clamped per round, with
//     no RNG and no learning — and re-freezing on a refresh cadence as
//     the primary rotates. A replica's answer is byte-identical to the
//     price the primary posts for its first round after the same
//     snapshot, and /v1/stats reports the replica's staleness
//     (checkpoint age plus the frozen round/update ordinals). Replicas
//     never write to the state directory.
//
// The HTTP front end (serve.NewHTTPServer) bounds header reads and idle
// connections, and both primary and replica serve the same /v1/quote,
// /v1/stats, /healthz surface. `make serve-smoke` pins the batched
// crash-recovery bit-identity, the rule-8 batch-size tables, and the
// replica identity under the race detector; cmd/vtmig-loadgen records
// serving throughput and latency percentiles — per target, across a
// primary and its replicas — into the BENCH_pr*.json files.
//
// # Scenarios
//
// internal/scenario is the simulator's declarative workload layer: a
// scenario is a named, self-contained description of one simulation —
// road world, fleet, churn, outages, demand cycle, and the MSP pricer —
// stated as what it changes about the default 6-vehicle highway world.
// Scenario files are strict JSON or TOML (a dependency-free subset
// parser funnels TOML through the same JSON schema, so both formats
// share one unknown-field policy); loading validates everything, so a
// loaded scenario always compiles. Compilation is deterministic:
// the same (schema, seed) always yields the same sim.Config, including
// the expansion of generator blocks like OutageGen, whose windows are
// drawn from a dedicated splitmix64-derived stream
// (mathx.SplitMix64) that never collides with the simulation's own
// draws. The pricer side is declarative too: sim.PricerSpec names a
// registered builder ("oracle", "fixed", "random", plus "drl" and
// "online" from the experiments layer) with zero-valued fields adopting
// defaults or checkpoint metadata, and scenario files, vtmig-sim, and
// vtmig-serve all build pricers through this one registry
// (sim.NewPricerFromSpec). The committed matrix under
// testdata/scenarios/ — static highway, urban grid, churn, outages,
// demand cycle, and the combined non-stationary workload — is pinned by
// per-pricer golden reports in internal/scenario/testdata, and
// experiments.RunNonstationaryStudy uses the scenario layer to measure
// whether online continual learning beats a frozen agent by a wider
// margin when the workload actually drifts. Entry points:
// vtmig.LoadScenario / vtmig.RunScenario, scenario.Load,
// Scenario.Compile, and vtmig-sim -scenario (workload flags conflict
// explicitly; -verbose, -trace, and the snapshot flags still apply).
//
// # Fleet scale
//
// The simulator scales to metropolitan fleets on one goroutine. Each
// tick's vehicle phase steps every vehicle in fleet order — kinematics,
// sensing delivery, and a staged serving-RSU lookup on per-vehicle
// state — and handover collection then consumes the staged lookups. The
// lookup is O(1) per vehicle on the grid world:
// mobility.Grid.ServingRSU resolves the nearest RSU from the few
// intersections of the vehicle's street, and during outages only the
// vehicles whose nearest RSU is down fall back to the scan over every
// RSU, so an outage re-homes those vehicles without slowing the rest.
// The pricing round is single-pass: each of the solver's golden-section
// and bisection probes walks the followers once, accumulating their
// floored best responses without materializing a demand vector, and the
// equilibrium report evaluates the channel's spectral efficiency once
// rather than once per follower (aotm.ImmersionForRate). The
// per-vehicle bookkeeping lives on the vehicle instead of in maps keyed
// by vehicle id: its serving RSU, its in-flight flag, its slot in the
// pending queue, and the round stamp of the duplicate-follower guard;
// departures leave the pending queue in one pass per tick.
// Memory and allocations stay flat as the fleet grows: each vehicle's
// turn-decision stream lives on the vehicle and leaves with it, created
// on its first turn over a mathx.SeededSource — the standard source's
// stream bit for bit, but O(1) to create, where seeding a standard
// source costs 1,841 Lehmer steps and a 4.9 KB lag table that a
// vehicle turning a few times per run never needs. Reports aggregate
// streamingly as migrations complete (Config.DiscardMigrationRecords
// drops the per-migration records for fleet-scale runs while leaving
// every aggregate untouched), sensing histories compact behind
// aoi.NewBoundedProcess at 8 breakpoints, the round game and the oracle
// pricer's solve reuse scratch across pricing rounds (grown by doubling,
// not to each new round size), and the admission hot paths
// (channel.OFDMAAllocator.TryAllocate, rsu.Cluster.TryPlaceOn/TryPlace,
// and rsu.Cluster.TryMigrateTwin on migration completion) reject without
// constructing errors. The committed
// testdata/scenarios/metro-10k.json — a 12×16 RSU grid serving 10,000
// vehicles under churn and generated outages — runs end to end in
// seconds (vtmig-sim -scenario testdata/scenarios/metro-10k.json), is
// pinned by the scenario golden matrix like every other committed
// scenario, and is measured by BenchmarkSimFleet with the steady-state
// allocation and byte gates in internal/sim/steady_alloc_test.go.
// FuzzGridSimSteps steps randomized grids under churn and outages,
// checking fleet conservation and the bandwidth pool after every tick.
//
// # Determinism contract
//
// The same seed yields the same figures, bit for bit. Six rules enforce
// it, numbered 1–8 with 3 and 7 retired:
//
//  1. Batched kernels accumulate in exactly the order of the
//     sample-at-a-time loops they replaced (k-ascending, one accumulator
//     per destination element; row-ascending gradient accumulation).
//     Vector lanes span only independent destination elements, and a
//     multiply-add is a separate multiply and add, never fused.
//  2. Parallel experiment tasks are independently seeded with results
//     assembled in input order.
//  3. Retired with sharded PPO updates; the number stays so that later
//     rules keep their names.
//  4. Vectorized collection merges independently seeded per-env streams
//     in fixed env-index order: the per-round policy evaluation is one
//     batched pass over the live envs ascending, action sampling consumes
//     the single policy RNG serially in that same order, the envs step in
//     that same order into per-env staging buffers, and the merge replays
//     the staged transitions env-ascending with per-env GAE segments — so
//     a single-env vectorized trainer is bit-identical to the classic
//     serial collect loop.
//  5. Online continual learning adds no ordering of its own: externally
//     produced transitions enter the rollout strictly in
//     simulator-round order (the producing loop is serial and the
//     rl.StreamCollector consumes no RNG) — so a fixed simulator seed
//     yields a bit-identical sim.Report and bit-identical final network
//     weights regardless of GOMAXPROCS.
//  6. Checkpoint/resume carries the COMPLETE training state — parameter
//     values, per-parameter Adam moments and step count, the policy RNG
//     stream position, and every environment stream's RNG position and
//     running-best reference — with RNG streams restored from their
//     captured generator state in O(1) (version-1 files fall back to
//     replaying a counted source to its recorded position). Training K
//     episodes, snapshotting at an episode-block boundary, restoring
//     into freshly built environments and learner, and training K more
//     is then bit-identical to training 2K straight, even when GOMAXPROCS
//     changes between the legs. At simulator level the same holds: an
//     online pricer snapshot also carries the encoder belief window,
//     current observation, best tracker, and stream counters, so running
//     a simulation to an update boundary, snapshotting, restoring with
//     NewOnlinePricerFromCheckpoint, and finishing the run is
//     bit-identical — same sim.Report, same final weights — to never
//     having stopped. A full restore requires every section — and a
//     matching learner-hyper-parameter fingerprint — or fails before the
//     agent is touched, so a partial state can never silently cold-start
//     (the pre-PR-5 params-only restore did exactly that for the Adam
//     moments and the policy RNG, and the pre-PR-6 online snapshot
//     dropped the pricer-side state the same way).
//  7. Retired with region-sharded simulation; the number stays so that
//     rule 8 keeps its name.
//  8. Serving batch size is a pure throughput knob, not a semantic one:
//     the intake loop may cut the arrival-ordered request stream into
//     batches of any size (Config.BatchMax), but journal entries are
//     staged in arrival order and flushed once per batch before any
//     acknowledgement, and the policy/belief/learning core runs strictly
//     serially in that same order — so any batch size under any
//     GOMAXPROCS yields bit-identical responses, journal bytes, and
//     learner weights to one-at-a-time intake. Read replicas are the same
//     rule across processes: a replica frozen at snapshot ordinal k
//     answers with exactly the price the primary posts for its first
//     round after rotation k — same float bits — because the frozen
//     readout is the deterministic mean of the checkpointed belief state,
//     which the request cannot perturb.
//
// The golden-file tests under internal/experiments/testdata pin the exact
// fixed-seed outputs of every figure pipeline, those under
// internal/sim/testdata the per-pricer simulator reports, those under
// internal/scenario/testdata the committed scenario matrix (7 scenarios
// × 3 analytic pricers, the 10,000-vehicle metro-10k included), and the
// determinism tests in internal/rl, internal/pomdp, internal/sim, and
// internal/stackelberg pin the rules at unit level (rule 6 by the
// resume-equality tables in internal/rl/resume_test.go,
// internal/pomdp/resume_test.go, internal/experiments/resume_test.go,
// and — at simulator level — internal/sim/online_resume_test.go;
// `make race-resume` runs them under the race detector; rule 8 by the
// batch-size bit-identity tables and the replica byte-identity tests
// in internal/serve and the chunked-quote tables in
// internal/sim/frozen_test.go, all under `make serve-smoke`'s race
// pass). Regenerate the golden files after an
// intentional numeric change with
//
//	go test ./internal/experiments -run Golden -update
//	go test ./internal/sim -run Golden -update
//	go test ./internal/scenario -run Golden -update
//
// (`make golden` runs all three.)
//
// # Benchmarks
//
// The per-figure benchmarks and the kernel/PPO microbenchmarks live in
// bench_test.go at the repository root:
//
//	go test -run '^$' -bench . -benchmem
//
// The repository's end-to-end benchmark is the separate module in bench/
// (`bash bench/run.sh`, declared by BENCHMARK.json). BENCH_seed.json and
// BENCH_pr*.json are earlier microbenchmark recordings, kept as history.
package vtmig
