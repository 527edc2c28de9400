# Development targets for the vtmig reproduction. `make ci` is the gate
# run before merging — GitHub Actions runs it on every push and pull
# request (.github/workflows/ci.yml, with Go build/module caching): vet,
# gofmt cleanliness, build, race-enabled tests (which exercise the
# experiment worker pool under the race detector), the sharded-update,
# vectorized-collection, online-learning, and region-sharded-simulator
# (rule 7) determinism suites under -race, the serving crash-recovery
# smoke (serve-smoke), vet and race-enabled tests of the separate
# benchmark module (bench-check), and a short benchmark smoke pass over
# the PPO hot path.
#
# Benchmark regressions are gated by tools/benchdiff, which diffs two
# recordings — BENCH_*.json snapshots or raw `go test -bench -benchmem`
# output — and exits non-zero on >15 % ns/op growth or any allocs/op
# increase. `make bench-compare` measures a fresh short pass of the hot
# paths and diffs it against the latest snapshot, the highest-numbered
# BENCH_prN.json (override BASE to pin an older snapshot); to diff two
# arbitrary recordings run the tool directly:
#
#	make bench-compare
#	make bench-compare BASE=BENCH_pr2.json
#	go run ./tools/benchdiff BENCH_pr2.json BENCH_pr3.json
#
# CI runs bench-compare as an advisory job; shared-runner timing noise
# makes the ns/op gate informative rather than blocking there, while the
# allocs/op gate is exact everywhere.

GO ?= go

# BASE is the snapshot bench-compare and bench-multicore measure against:
# the highest-numbered BENCH_prN.json, version-sorted so pr10 follows pr9.
BASE ?= $(shell ls BENCH_pr*.json | sort -V | tail -n 1)
# BENCH_HOT selects the hot-path benchmarks bench-compare re-measures.
BENCH_HOT = PPOUpdate$$|PPOUpdateSharded|PPOSelectAction|MLPForward$$|Evaluate|SolveScratch|Collect|TrainerEpisode|StreamCollect|SimRoundOnline|Snapshot|Resume|CheckpointJSON|CheckpointBinary|ServeQuote|SimFleetSharded

.PHONY: all vet fmt-check build test race race-sharded race-collect race-online race-resume race-shardsim serve-smoke bench-check bench-smoke bench bench-compare bench-multicore golden golden-drift ci

all: ci

# vet also vets the kernel packages for arm64, so the scalar fallback that
# replaces the amd64 assembly on other GOARCHes keeps compiling.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/mat ./internal/nn

# fmt-check fails when any file needs gofmt (CI cleanliness gate).
fmt-check:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector; the worker-pool and
# parallel-sweep tests make data races in the experiment fan-out fail
# loudly here.
race:
	$(GO) test -race ./...

# race-sharded re-runs the sharded-update determinism and allocation
# tests under the race detector with a high iteration count. The tests
# themselves pin shard-count × GOMAXPROCS combinations (including values
# above the host's core count), so a race or a reduction-order bug in the
# sharded gradient path fails here even on a single-core CI box.
race-sharded:
	$(GO) test -race -count=2 -run 'Sharded|AutoShards|ShardDeferred|ShardClone' ./internal/rl ./internal/pomdp ./internal/nn

# race-collect re-runs the vectorized-collection determinism and
# allocation tests under the race detector. The worker×GOMAXPROCS tables
# pin worker counts above the host's core count, so a race or a
# merge-order bug in the parallel collection path fails here even on a
# single-core CI box.
race-collect:
	$(GO) test -race -count=2 -run 'VecCollect|VecAuto|VecMerge|VecGAE|VecTrainer|VecEnv|SingleEnvTrainer|SelectActionBatch' ./internal/rl ./internal/pomdp

# race-online re-runs the online continual-learning determinism and
# stream-collector tests under the race detector. The rule-5 tables pin
# CollectWorkers x shard x GOMAXPROCS combinations above the host's core
# count, so a race or an ordering bug anywhere in the online training
# path fails here even on a single-core CI box.
race-online:
	$(GO) test -race -count=2 -run 'Online|Stream' ./internal/rl ./internal/sim

# race-resume re-runs the checkpoint/resume determinism tests under the
# race detector. The rule-6 resume-equality tables pin snapshot-at-K-
# then-train-K against train-2K across CollectWorkers x shards x
# GOMAXPROCS (with knobs that differ between the legs), so a race or a
# missing piece of checkpointed state anywhere in the snapshot/restore
# path fails here even on a single-core CI box.
race-resume:
	$(GO) test -race -count=2 -run 'Resume|Snapshot|Checkpoint|Clone|CountingSource' ./internal/rl ./internal/nn ./internal/pomdp ./internal/mathx ./internal/sim

# race-shardsim re-runs the region-sharded simulator determinism layer
# under the race detector: the rule-7 shard-count × GOMAXPROCS
# bit-identity tables (sim- and scenario-level, online pricer included),
# the per-step shard invariants under churn and outages, and the
# FuzzShardPartition seed corpus. The tables pin region counts above the
# RSU count and GOMAXPROCS above the host's core count, so a race or a
# merge-order bug in the sharded vehicle phase fails here even on a
# single-core CI box. TestSeededSourceConcurrentStreams covers the
# seeding tables every vehicle's turn stream reads, which shard
# goroutines build on first use and then share.
race-shardsim:
	$(GO) test -race -count=1 -run 'Shard|RegionOf|Rule7|DiscardMigration|TestSeededSourceConcurrentStreams' ./internal/sim ./internal/scenario ./internal/mathx

# serve-smoke pins the serving layer's crash-recovery story under the
# race detector: quote against a live daemon, kill it mid-run, reopen the
# state directory (checkpoint restore + journal replay), and assert the
# recovered quotes and learner weights are bit-identical to an
# uninterrupted run — plus the journal edge cases (torn trailing line,
# rotated-away checkpoint, mid-file corruption, the FuzzJournalRecover
# seed corpus) and the daemon-level restart-resume flow. The Batch,
# Replica, and Shutdown arms pin contract rule 8 (batch size × prework
# workers bit-identical to serial intake; replica byte-identical to the
# primary at the same snapshot; batched crash recovery) and the graceful
# shutdown-under-load accounting, with the prework fan-out goroutines
# exercised under -race.
serve-smoke:
	$(GO) test -race -count=1 -run 'Serve|Journal|Quote|Loadgen|HTTP|Batch|Replica|Shutdown' ./internal/serve ./cmd/vtmig-serve ./cmd/vtmig-loadgen
	$(GO) test -race -count=1 -run 'QuoteBatch|Frozen' ./internal/sim

# bench-check vets and race-tests the benchmark program. bench/ is a
# module of its own (bench/go.mod), so the root-module vet and race
# targets never build it; this runs its smoke test over every workload
# and its check that BENCHMARK.json names exactly the workloads and
# metrics the program reports.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -race ./...

# bench-smoke exercises the PPO hot-path benchmarks just enough to catch
# gross regressions and allocation reintroductions. The checkpoint
# encode/decode pair keeps the binary format's size and speed advantage
# over JSON visible in every smoke pass, SolveScratch covers the
# equilibrium solver at the paper's 2 VMUs and at fleet size, MatMul
# and AdamStep cover the kernels the PPO update spends its time in, and
# SimNew prints the metro-10k set-up's time and bytes.
bench-smoke:
	$(GO) test -run '^$$' -bench 'PPOUpdate$$|PPOSelectAction|MLPForward|MatMul|AdamStep|Collect|StreamCollect|SimRoundOnline|Snapshot|Resume|CheckpointJSON|CheckpointBinary|ServeQuote|SolveScratch|SimNew' -benchmem -benchtime 100x .

# bench is the full benchmark suite used to fill BENCH_pr*.json.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 2s .

# bench-compare measures a fresh short pass of the hot paths and diffs
# it against the latest snapshot (see header).
bench-compare:
	$(GO) test -run '^$$' -bench '$(BENCH_HOT)' -benchmem -benchtime 1s . > bench-current.txt
	$(GO) run ./tools/benchdiff -threshold 0.15 $(BASE) bench-current.txt

# bench-multicore records the hot-path benchmarks with parallelism
# enabled (-cpu 2,4, i.e. GOMAXPROCS > 1) — an advisory recording for the
# sharded/vectorized paths whose single-core numbers hide contention and
# scheduling effects — and diffs it against BASE. CI runs it
# continue-on-error; benchdiff strips the -N GOMAXPROCS suffix, so the
# recording diffs against any snapshot.
bench-multicore:
	$(GO) test -run '^$$' -bench '$(BENCH_HOT)' -benchmem -benchtime 100x -cpu 2,4 . > bench-multicore.txt
	@cat bench-multicore.txt
	$(GO) run ./tools/benchdiff -threshold 0.15 $(BASE) bench-multicore.txt

# golden regenerates the fixed-seed golden files after an intentional
# numeric change: the experiment figure pipelines, the per-pricer
# simulator reports, and the scenario-matrix reports.
golden:
	$(GO) test ./internal/experiments -run Golden -update
	$(GO) test ./internal/sim -run Golden -update
	$(GO) test ./internal/scenario -run Golden -update

# golden-drift regenerates every golden suite and fails when the result
# differs from the committed files — i.e. when a numeric change landed
# without its goldens. CI runs it continue-on-error: bitwise drift is a
# signal to investigate, not automatically a bug (the golden tests
# themselves compare under tolerance).
golden-drift: golden
	git diff --exit-code -- '*_golden.txt' 'internal/experiments/testdata' 'internal/sim/testdata' 'internal/scenario/testdata'

ci: vet fmt-check build race race-sharded race-collect race-online race-resume race-shardsim serve-smoke bench-check bench-smoke
