package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunTinyTraining(t *testing.T) {
	if err := run([]string{"-episodes", "3", "-rounds", "20"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunShapedReward(t *testing.T) {
	if err := run([]string{"-episodes", "3", "-rounds", "20", "-reward", "shaped"}); err != nil {
		t.Fatalf("run shaped: %v", err)
	}
}

func TestRunVectorizedCollection(t *testing.T) {
	if err := run([]string{"-episodes", "4", "-rounds", "20", "-collect-envs", "2"}); err != nil {
		t.Fatalf("run vectorized: %v", err)
	}
}

func TestRunBadCollectFlags(t *testing.T) {
	if err := run([]string{"-collect-envs", "0"}); err == nil {
		t.Fatal("collect-envs=0 accepted")
	}
}

func TestRunUnknownReward(t *testing.T) {
	if err := run([]string{"-reward", "nonsense"}); err == nil {
		t.Fatal("unknown reward accepted")
	}
}

func TestRunCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	if err := run([]string{"-episodes", "2", "-rounds", "10", "-checkpoint", path}); err != nil {
		t.Fatalf("run with checkpoint: %v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	if info.Size() == 0 {
		t.Error("checkpoint is empty")
	}
}

func TestRunCheckpointBadPath(t *testing.T) {
	if err := run([]string{"-episodes", "2", "-rounds", "10", "-checkpoint", "/nonexistent-dir/x.bin"}); err == nil {
		t.Fatal("unwritable checkpoint path accepted")
	}
}

func TestRunResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	if err := run([]string{"-episodes", "2", "-rounds", "10", "-checkpoint", path}); err != nil {
		t.Fatalf("run with checkpoint: %v", err)
	}
	if err := run([]string{"-episodes", "4", "-rounds", "10", "-resume", path}); err != nil {
		t.Fatalf("resume: %v", err)
	}
}

func TestRunResumeRejectsMismatchedFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	if err := run([]string{"-episodes", "2", "-rounds", "10", "-checkpoint", path}); err != nil {
		t.Fatalf("run with checkpoint: %v", err)
	}
	if err := run([]string{"-episodes", "4", "-rounds", "15", "-resume", path}); err == nil {
		t.Fatal("resume with mismatched -rounds accepted")
	}
	if err := run([]string{"-episodes", "2", "-rounds", "10", "-resume", path}); err == nil {
		t.Fatal("resume with no episodes left accepted")
	}
	if err := run([]string{"-episodes", "4", "-resume", filepath.Join(t.TempDir(), "missing.bin")}); err == nil {
		t.Fatal("resume from missing file accepted")
	}
}

func TestRunBinaryCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	if err := run([]string{"-episodes", "2", "-rounds", "10", "-checkpoint", path}); err != nil {
		t.Fatalf("run with binary checkpoint: %v", err)
	}
	// The file must actually be the binary encoding, not JSON.
	head := make([]byte, 4)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(head); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if string(head) != "vtck" {
		t.Fatalf("checkpoint head %q, want the binary magic", head)
	}
	if err := run([]string{"-episodes", "4", "-rounds", "10", "-resume", path}); err != nil {
		t.Fatalf("resume from binary checkpoint: %v", err)
	}
}
