# Development targets for the vtmig reproduction. `make ci` is the gate
# run before merging — GitHub Actions runs it on every push and pull
# request (.github/workflows/ci.yml, with Go build/module caching): vet,
# gofmt cleanliness, build, race-enabled tests (which exercise the
# experiment worker pool under the race detector), the online-learning
# and resume determinism suites under -race, the serving crash-recovery
# smoke (serve-smoke), vet and race-enabled tests of the separate
# benchmark module (bench-check), and a short benchmark smoke pass over
# the hot paths.
#
# Performance is measured end to end by the benchmark module in bench/
# (`bash bench/run.sh`, see BENCHMARK.json). Here bench-smoke only keeps
# the microbenchmarks running; the AllocsPerRun tests are the exact
# allocation gates.

GO ?= go

.PHONY: all vet fmt-check build test race race-online race-resume serve-smoke bench-check bench-smoke golden golden-drift ci

all: ci

# vet also vets the kernel packages for arm64, so the scalar fallback that
# replaces the amd64 assembly on other GOARCHes keeps compiling, and runs
# the kernel tests built for GOAMD64=v3, where FMA is in the baseline and
# the GODEBUG=cpu.fma=off fallback test must skip rather than fail.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/mat ./internal/nn
	GOAMD64=v3 $(GO) test ./internal/mat

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

# race-online re-runs the online continual-learning determinism and
# stream-collector tests under the race detector. The rule-5 tables pin
# GOMAXPROCS values above the host's core count, so a race or an
# ordering bug anywhere in the online training path fails here even on
# a single-core CI box.
race-online:
	$(GO) test -race -count=2 -run 'Online|Stream' ./internal/rl ./internal/sim

# race-resume re-runs the checkpoint/resume determinism tests under the
# race detector. The rule-6 resume-equality tables pin snapshot-at-K-
# then-train-K against train-2K across env counts, split points and
# GOMAXPROCS (which may differ between the legs), so a race or a missing
# piece of checkpointed state anywhere in the snapshot/restore path
# fails here even on a single-core CI box.
race-resume:
	$(GO) test -race -count=2 -run 'Resume|Snapshot|Checkpoint|Clone|CountingSource' ./internal/rl ./internal/nn ./internal/pomdp ./internal/mathx ./internal/sim

# serve-smoke pins the serving layer's crash-recovery story under the
# race detector: quote against a live daemon, kill it mid-run, reopen the
# state directory (checkpoint restore + journal replay), and assert the
# recovered quotes and learner weights are bit-identical to an
# uninterrupted run — plus the journal edge cases (torn trailing line,
# rotated-away checkpoint, mid-file corruption, the FuzzJournalRecover
# seed corpus) and the daemon-level restart-resume flow. The Batch,
# Replica, and Shutdown arms pin contract rule 8 (every batch size
# bit-identical to serial intake; replica byte-identical to the primary
# at the same snapshot; batched crash recovery) and the graceful
# shutdown-under-load accounting, with concurrent quoters exercising the
# intake queue under -race. The Rotation tests reach state the serial
# core shares with the persistence goroutine (the crash-window table,
# the failed-rotation path, a replica refreshing while batches cross
# rotation boundaries), so they run ten times over.
serve-smoke:
	$(GO) test -race -count=1 -run 'Serve|Journal|Quote|Loadgen|HTTP|Batch|Replica|Shutdown' ./internal/serve ./cmd/vtmig-serve ./cmd/vtmig-loadgen
	$(GO) test -race -count=10 -run 'Rotation' ./internal/serve
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
# equilibrium solver at the paper's 2 VMUs and at fleet size, MatMul,
# AdamStep and TanhTo cover the kernels the PPO update spends its time in
# (MatMulABTTo at the one-row and 20-row forward shapes), and SimNew
# prints the metro-10k set-up's time and bytes.
bench-smoke:
	$(GO) test -run '^$$' -bench 'PPOUpdate$$|PPOSelectAction|ActorCriticForward|MatMul|AdamStep|TanhTo|Collect|StreamCollect|SimRoundOnline|Snapshot|Resume|CheckpointJSON|CheckpointBinary|ServeQuote|SolveScratch|SimNew' -benchmem -benchtime 100x .

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

ci: vet fmt-check build race race-online race-resume serve-smoke bench-check bench-smoke
