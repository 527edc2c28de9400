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
//     -scenario): strict JSON workload files — Manhattan-grid
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
// provides destination-passing GEMM kernels (MulTo, MulABTBiasTo,
// MulATBAddTo) whose accumulation order is fixed per destination element,
// internal/nn has one forward pass (ForwardBatch) and one backward pass
// (BackwardBatch), both over a batch of rows and reusing per-layer
// scratch across calls, and the PPO learner pushes every minibatch
// through the network as one batched pass. A policy acting on one
// observation (a served quote, the online pricer's round, the frozen
// pricer's readout, a critic bootstrap) runs the same pass as a batch of
// one, so its bits are those of the matching row of any batch. Every
// forward pass of a linear layer — one row, a collection step over the
// live envs, a PPO minibatch — runs through one A·Bᵀ kernel,
// mat.MulABTBiasTo, reading the weights in place. On amd64 CPUs with
// AVX2 (probed once from CPUID, with no flag or build tag) that kernel,
// the GEMMs of the backward pass and the Adam step run as AVX2 assembly
// that gives the same bits as the Go loops, which every other CPU runs
// instead. The A·Bᵀ kernel computes four
// destination columns per vector from 4×4 blocks of the weights
// transposed in registers. The first trunk layer's backward pass
// accumulates only its weight and bias gradients; nothing reads the
// observation gradient.
// The tanh activations — the hidden layers and the squashed policy
// mean — run through mat.TanhTo, an AVX2 kernel that evaluates four
// lanes at a time and returns math.Tanh's bits: it follows math/tanh.go's branches and, for e^(2|x|), the
// fused instruction sequence of math.Exp's amd64 assembly. It runs only
// where CPUID shows AVX2 and FMA and a check at package init finds it
// equal to math.Tanh in the running process (a process started with
// GODEBUG=cpu.fma=off fails the check, because math.Exp then stops
// fusing); elsewhere TanhTo is the math.Tanh loop. The tanh layer's
// backward pass is one g·(1−out²) loop over its cached outputs.
// The Stackelberg evaluation is destination-passing as well
// (Game.EvaluateInto / Game.SolveInto over an EvalScratch), which keeps
// the per-round follower response inside the POMDP's Step free of report
// allocations; the simulator's oracle pricer runs only the price search
// (Game.SolvePriceInto), with no utilities it would discard.
// Algorithm 1's collection phase is vectorized
// (rl.EnvSlice / rl.VecCollector / rl.NewVecTrainer): episode blocks step
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
// Training state persists through one checkpoint format (nn.Checkpoint,
// version 2): parameter values, per-parameter Adam moments and the
// optimizer step count, the policy RNG stream — as a (seed,
// advance-count) pair over a counting source (mathx.CountingSource) plus,
// once the stream is at least mathx.StateLen draws old, the generator's
// captured lagged-Fibonacci state vector, so restore is an O(1)
// reconstruction and never replays more than mathx.StateLen − 1 draws —
// each training-environment stream's state (RNG position plus the
// running-best reference of Eq. 12), and training metadata (episode
// count, configuration fingerprints). A checkpoint written by
// sim.OnlinePricer.Snapshot additionally carries the pricer section: the
// POMDP encoder's belief window, the current observation, the best-price
// tracker, the stream-collector round/update counters, and the pricer
// hyper-parameters — everything sim.NewOnlinePricerFromCheckpoint needs
// to continue the same simulation stream bit-identically. Snapshots are
// taken at episode-block boundaries (rl.PPO.Snapshot,
// rl.Trainer.Snapshot, experiments.TrainResult.Checkpoint) and at online
// update boundaries (sim.OnlinePricer.Snapshot, its SnapshotEvery hook).
// nn.Checkpoint.Validate states the one shape every writer produces and
// every reader accepts — version 2, the optimizer, RNG and meta sections
// present, environment and pricer sections optional, an RNG state exactly
// on streams that old — and restores are strict: unknown, missing,
// mis-sized, empty, or non-finite entries are rejected before anything
// is applied, so a checkpoint from a different architecture or a
// hand-edited file fails loudly.
//
// The encoding (Checkpoint.SaveBinary, Checkpoint.WriteFile,
// nn.LoadCheckpoint) is binary: "vtck" magic, little-endian version,
// tagged sections in fixed order (params, optimizer, RNG, envs, meta,
// pricer), uvarint lengths with hard caps against hostile inputs, and a
// CRC-32 trailer so truncation and bit corruption fail loudly. It reads
// back every checkpoint it writes. Resume entry points:
// rl.Trainer.Restore, experiments.ResumeAgent,
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
//     its quotes is acknowledged (acknowledged ⇒ durable). That guarantee
//     holds against a process crash only: the flush is a write(2) with
//     no fsync, and no rename syncs the state directory, so a machine
//     crash can lose acknowledged rounds (checkpoint files and journal
//     headers are fsynced before their renames). The pricer's
//     SnapshotEvery hook rotates full binary checkpoints at
//     optimization-phase boundaries, and the rotation stays off the
//     serial path: at rotation k's boundary the serial core only hands
//     checkpoint k to a persistence goroutine, which encodes it, writes
//     and fsyncs its temp file and prepares the next journal's header;
//     at rotation k+1's boundary the serial core publishes checkpoint k
//     (renames it into place, where replicas can see it), carries the
//     rounds since boundary k into the prepared journal, switches the
//     journal to it and prunes. So the journal extends the checkpoint one
//     rotation back, and both the switch and a checkpoint's publication
//     fall on a round fixed by the request stream, never on goroutine
//     timing. A failed rotation is counted in Stats.RotateErrors at the
//     next boundary, and the journal keeps extending the checkpoint it
//     binds. The journal header binds its checkpoint by snapshot
//     ordinal and body CRC-32 plus a fingerprint of the reference game,
//     so recovery is rule 6's strictly-or-not-at-all: reopening the state
//     directory restores the bound checkpoint and replays the journaled
//     rounds through the identical engine path, rotation pipeline
//     included (run synchronously) — same quotes, same learner weights,
//     same journal, bit for bit — while a journal whose checkpoint is
//     missing, mismatched, or corrupt refuses loudly instead of
//     cold-starting (FuzzJournalRecover drives hostile journal bytes
//     through the full recovery path). The only tolerated irregularity is
//     a torn trailing journal line (a crash mid-append): that quote was
//     never acknowledged, so dropping it reconstructs exactly the state
//     every answered quote saw. The binding is the checkpoint body's
//     CRC-32 (the file's trailer), so a swapped-in checkpoint from
//     another run with the same counters is refused too. One crash
//     window of first start is known and not closed: the boot
//     checkpoint is written before the journal is created, so a crash
//     between the two leaves a checkpoint with no journal, which every
//     later Open refuses until the directory is emptied. (When journal
//     creation merely fails, boot removes the checkpoint it wrote.)
//   - Read replicas: serve.OpenReplica (vtmig-serve -replica-of) scales
//     quote reads horizontally by freezing the primary's latest published
//     checkpoint into a sim.FrozenPricer — the deterministic mean-price
//     readout of the checkpointed belief state, clamped per round, with
//     no RNG and no learning — and re-freezing on a refresh cadence as
//     the primary rotates. A replica's answer is byte-identical to the
//     price the primary posted for its first round after the same
//     snapshot — checkpoint k, published at rotation k+1's boundary, so
//     a current replica trails the primary by one rotation — and
//     /v1/stats reports the replica's staleness
//     (checkpoint age plus the frozen round/update ordinals). Replicas
//     never write to the state directory.
//
// The HTTP front end (serve.NewHTTPServer) bounds header reads and idle
// connections, and both primary and replica serve the same /v1/quote,
// /v1/stats, /healthz surface; a quote body must be exactly one JSON
// object. `make serve-smoke` pins the batched crash-recovery
// bit-identity, the rule-8 batch-size tables, the replica identity, and
// — ten times over — the rotation pipeline's crash-window table and
// failure path under the race detector; cmd/vtmig-loadgen records
// serving throughput and latency percentiles — per target, across a
// primary and its replicas — into the BENCH_pr*.json files.
//
// # Scenarios
//
// internal/scenario is the simulator's declarative workload layer: a
// scenario is a named, self-contained description of one simulation —
// road world, fleet, churn, outages, demand cycle, and the MSP pricer —
// stated as what it changes about the default 6-vehicle highway world.
// Scenario files are strict JSON (unknown fields and trailing content are
// errors, and any other extension, .toml included, is refused); loading
// validates everything, so a loaded scenario always compiles. Compilation is deterministic:
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
// experiments.RunNonstationaryStudyCtx uses the scenario layer to measure
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
//  1. Batched kernels accumulate in exactly the order of the textbook
//     loops that the tests keep as their references (k-ascending, one
//     accumulator per destination element; row-ascending gradient
//     accumulation), so each forward row equals the same row run alone —
//     the policy acting on one observation is a batch of one — and a
//     batch's gradients equal one-row passes over its rows in order.
//     Vector lanes span only independent destination elements; an
//     in-register transpose only moves operands into them. In the GEMM,
//     A·Bᵀ and Adam kernels a multiply-add is a separate multiply and
//     add, never fused. An element-wise kernel reproduces the
//     standard-library function it replaces bit for bit in the running
//     process — fused multiply-adds included, exactly where math.Exp
//     uses them — and runs only where a check at package init proves it
//     (mat.TanhTo against math.Tanh).
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
//     captured generator state in O(1). Training K episodes,
//     snapshotting at an episode-block boundary, restoring into freshly
//     built environments and learner, and training K more is then
//     bit-identical to training 2K straight, even when GOMAXPROCS
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
//     learner weights to one-at-a-time intake — and, after every round,
//     the same journal bytes and the same published checkpoints, because
//     the journal switches to checkpoint k, and checkpoint k is
//     published, exactly at rotation k+1's boundary, whenever the
//     persistence goroutine finished writing it. Read replicas are the
//     same rule across processes: a replica frozen at snapshot ordinal k
//     (published at rotation k+1's boundary) answers with exactly the
//     price the primary posted for its first round after rotation k —
//     same float bits — because the frozen readout is the deterministic
//     mean of the checkpointed belief state, which the request cannot
//     perturb.
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
