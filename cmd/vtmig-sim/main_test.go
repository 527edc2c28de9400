package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vtmig/internal/experiments"
	"vtmig/internal/stackelberg"
)

func TestRunShortSimulation(t *testing.T) {
	if err := run([]string{"-duration", "120", "-verbose"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunPricers(t *testing.T) {
	for _, pricer := range []string{"oracle", "random", "fixed"} {
		if err := run([]string{"-duration", "60", "-pricer", pricer}); err != nil {
			t.Errorf("pricer %s: %v", pricer, err)
		}
	}
}

func TestRunDRLPricer(t *testing.T) {
	if testing.Short() {
		t.Skip("training run skipped in -short mode")
	}
	if err := run([]string{"-duration", "60", "-pricer", "drl", "-train-episodes", "2"}); err != nil {
		t.Fatalf("drl pricer: %v", err)
	}
}

func TestRunOnlinePricer(t *testing.T) {
	if testing.Short() {
		t.Skip("training run skipped in -short mode")
	}
	if err := run([]string{"-duration", "120", "-pricer", "online", "-train-episodes", "2", "-update-every", "5"}); err != nil {
		t.Fatalf("online warm pricer: %v", err)
	}
	if err := run([]string{"-duration", "120", "-pricer", "online", "-warm-start=false", "-update-every", "5"}); err != nil {
		t.Fatalf("online cold pricer: %v", err)
	}
}

func TestRunOnlineWarmStartFile(t *testing.T) {
	if testing.Short() {
		t.Skip("training run skipped in -short mode")
	}
	// Write a checkpoint with vtmig-train's exact format by training
	// through the experiments harness (the same path vtmig-train takes).
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.bin")
	drlCfg := experiments.DefaultDRLConfig()
	drlCfg.Episodes = 2
	drlCfg.Rounds = 10
	drlCfg.Restarts = 1
	res, err := experiments.TrainAgent(stackelberg.DefaultGame(), drlCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Checkpoint.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	if err := run([]string{"-duration", "120", "-pricer", "online", "-warm-start-file", path,
		"-update-every", "5"}); err != nil {
		t.Fatalf("online pricer with warm-start file: %v", err)
	}
	if err := run([]string{"-duration", "60", "-pricer", "online",
		"-warm-start-file", filepath.Join(dir, "missing.bin")}); err == nil {
		t.Fatal("missing warm-start file accepted")
	}
}

func TestRunOnlineWarmStartFileDerivesFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("training run skipped in -short mode")
	}
	// The checkpoint carries its architecture metadata, so a history
	// length other than the paper's default needs no flag.
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.bin")
	drlCfg := experiments.DefaultDRLConfig()
	drlCfg.Episodes = 2
	drlCfg.Rounds = 10
	drlCfg.HistoryLen = 3 // the paper's default is 4
	drlCfg.Restarts = 1
	res, err := experiments.TrainAgent(stackelberg.DefaultGame(), drlCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Checkpoint.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	if err := run([]string{"-duration", "120", "-pricer", "online", "-warm-start-file", path,
		"-update-every", "5"}); err != nil {
		t.Fatalf("online pricer with derived flags: %v", err)
	}
}

func TestRunOnlineSnapshotResume(t *testing.T) {
	if testing.Short() {
		t.Skip("training run skipped in -short mode")
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "resume.bin")
	// Cold-start online run writing binary mid-run resume checkpoints.
	if err := run([]string{"-duration", "120", "-pricer", "online", "-warm-start=false",
		"-update-every", "5", "-snapshot-every", "1", "-snapshot-out", snap}); err != nil {
		t.Fatalf("snapshotting run: %v", err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no resume checkpoint written: %v", err)
	}
	// Resume it: cadence and architecture are adopted from the file.
	if err := run([]string{"-duration", "60", "-pricer", "online", "-warm-start-file", snap}); err != nil {
		t.Fatalf("resuming run: %v", err)
	}
	// An explicitly conflicting cadence must fail loudly.
	if err := run([]string{"-duration", "60", "-pricer", "online", "-warm-start-file", snap,
		"-update-every", "7"}); err == nil {
		t.Fatal("conflicting -update-every accepted")
	}
	if err := run([]string{"-duration", "60", "-pricer", "online", "-warm-start=false",
		"-snapshot-every", "1"}); err == nil {
		t.Fatal("-snapshot-every without -snapshot-out accepted")
	}
}

func TestRunOnlineInvalidUpdateEvery(t *testing.T) {
	if err := run([]string{"-pricer", "online", "-warm-start=false", "-update-every", "-3"}); err == nil {
		t.Fatal("negative update interval accepted")
	}
}

func TestRunUnknownPricer(t *testing.T) {
	if err := run([]string{"-pricer", "nonsense"}); err == nil {
		t.Fatal("unknown pricer accepted")
	}
}

func TestRunInvalidConfig(t *testing.T) {
	if err := run([]string{"-vehicles", "0"}); err == nil {
		t.Fatal("zero vehicles accepted")
	}
}

func TestRunFailureInjection(t *testing.T) {
	if err := run([]string{"-duration", "60", "-failure", "0.4"}); err != nil {
		t.Fatalf("run with failure injection: %v", err)
	}
}

func TestRunScenarioFile(t *testing.T) {
	for _, file := range []string{"urban-grid.json", "churn.json"} {
		path := filepath.Join("..", "..", "testdata", "scenarios", file)
		if err := run([]string{"-scenario", path}); err != nil {
			t.Errorf("run -scenario %s: %v", file, err)
		}
	}
}

func TestRunScenarioConflictsWithWorkloadFlags(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "scenarios", "static-highway.json")
	for _, extra := range [][]string{
		{"-vehicles", "4"},
		{"-duration", "60"},
		{"-pricer", "oracle"},
		{"-seed", "7"},
		{"-warm-start=false"},
	} {
		args := append([]string{"-scenario", path}, extra...)
		err := run(args)
		if err == nil {
			t.Errorf("%v: conflicting flag accepted", extra)
			continue
		}
		flagName, _, _ := strings.Cut(strings.TrimPrefix(extra[0], "-"), "=")
		if !strings.Contains(err.Error(), "conflicts with -scenario") || !strings.Contains(err.Error(), flagName) {
			t.Errorf("%v: error should name the conflicting flag, got %v", extra, err)
		}
	}
}

func TestRunScenarioHostFlagsStillApply(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "scenarios", "static-highway.json")
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"-scenario", path, "-verbose", "-trace", trace}); err != nil {
		t.Fatalf("run -scenario with host flags: %v", err)
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file not written: %v", err)
	}
}

// A trace sink that rejects writes must fail the run instead of exiting
// 0 with a report and a silently truncated trace: /dev/full answers every
// write with ENOSPC.
func TestRunTraceWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("/dev/full unavailable: %v", err)
	}
	err := run([]string{"-duration", "60", "-trace", "/dev/full"})
	if err == nil {
		t.Fatal("run -trace /dev/full succeeded; the trace write error was lost")
	}
	if !strings.Contains(err.Error(), "trace file") {
		t.Errorf("error should name the trace file, got %v", err)
	}
}

func TestRunScenarioMissingFile(t *testing.T) {
	if err := run([]string{"-scenario", "no-such-scenario.json"}); err == nil {
		t.Fatal("missing scenario file accepted")
	}
}
