package rl

import (
	"testing"

	"vtmig/internal/mat"
)

// TestValuesMatchesValue checks that the batched critic evaluation is
// bit-identical to calling Value once per rollout-step observation, and
// that it does not allocate once warm.
func TestValuesMatchesValue(t *testing.T) {
	agent, buf, _ := newAllocAgent(t)
	steps := buf.Steps()
	obs := mat.New(len(steps), 12)
	for i, tr := range steps {
		copy(obs.Row(i), tr.Obs)
	}
	got := make([]float64, len(steps))
	agent.Values(obs, got)
	for i, tr := range steps {
		if want := agent.Value(tr.Obs); got[i] != want {
			t.Fatalf("step %d: Values gives %v, Value gives %v", i, got[i], want)
		}
	}
	if n := testing.AllocsPerRun(20, func() { agent.Values(obs, got) }); n != 0 {
		t.Errorf("Values allocates %v times per call, want 0", n)
	}
}

// TestMeanActionBatchMatchesMeanAction checks that the batched
// deterministic readout consumes no RNG (the sampling stream position is
// untouched), that each row is bit-identical to the mean action
// SelectActionWithMean returns for the same observation alone, and that
// it does not allocate once warm.
func TestMeanActionBatchMatchesMeanAction(t *testing.T) {
	agent, buf, _ := newAllocAgent(t)
	steps := buf.Steps()
	obs := mat.New(len(steps), 12)
	for i, tr := range steps {
		copy(obs.Row(i), tr.Obs)
	}
	callsBefore := agent.src.Calls()
	dst := mat.New(len(steps), agent.ActDim())
	agent.MeanActionBatch(obs, dst)
	if agent.src.Calls() != callsBefore {
		t.Fatalf("MeanActionBatch consumed RNG: %d calls before, %d after", callsBefore, agent.src.Calls())
	}
	for i, tr := range steps {
		_, _, _, _, want := agent.SelectActionWithMean(tr.Obs)
		got := dst.Row(i)
		if len(got) != len(want) {
			t.Fatalf("step %d: row length %d, want %d", i, len(got), len(want))
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("step %d dim %d: MeanActionBatch gives %v, SelectActionWithMean's mean %v", i, d, got[d], want[d])
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() { agent.MeanActionBatch(obs, dst) }); n != 0 {
		t.Errorf("MeanActionBatch allocates %v times per call, want 0", n)
	}
}

func TestValuesLengthMismatchPanics(t *testing.T) {
	agent, _, _ := newAllocAgent(t)
	defer func() {
		if recover() == nil {
			t.Fatal("short dst did not panic")
		}
	}()
	agent.Values(mat.New(3, 12), make([]float64, 2))
}
