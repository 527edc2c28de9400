package rl

import (
	"math/rand"
	"testing"
)

// The tests in this file lock in the zero-allocation steady state of the
// training hot path: after a warm-up pass has grown every scratch buffer
// to its final size, action selection, rollout collection, GAE, and the
// full PPO optimization phase must not touch the heap again.

// allocEnv is a trivial deterministic environment for allocation tests —
// the real pomdp env calls into the Stackelberg solver, whose report
// structs would dominate the measurement.
type allocEnv struct {
	rng *rand.Rand
	obs []float64
	t   int
}

func newAllocEnv(obsDim int) *allocEnv {
	return &allocEnv{rng: rand.New(rand.NewSource(9)), obs: make([]float64, obsDim)}
}

func (e *allocEnv) Reset() []float64 {
	e.t = 0
	for i := range e.obs {
		e.obs[i] = e.rng.Float64()
	}
	return e.obs
}

func (e *allocEnv) Step(action []float64) ([]float64, float64, bool) {
	e.t++
	for i := range e.obs {
		e.obs[i] = e.rng.Float64()
	}
	return e.obs, action[0] * 0.1, e.t >= 100
}

// newAllocAgent builds a paper-sized learner plus a filled rollout buffer.
func newAllocAgent(tb testing.TB) (*PPO, *Rollout, *allocEnv) {
	tb.Helper()
	return newAllocAgentWith(tb, DefaultPPOConfig())
}

// newAllocAgentWith is newAllocAgent with the learner built from cfg.
func newAllocAgentWith(tb testing.TB, cfg PPOConfig) (*PPO, *Rollout, *allocEnv) {
	tb.Helper()
	env := newAllocEnv(12)
	agent := NewPPO(12, 1, []float64{0}, []float64{1}, cfg)
	buf := NewRollout(100)
	obs := env.Reset()
	for k := 0; k < 100; k++ {
		raw, envAct, logP, value, _ := agent.SelectActionWithMean(obs)
		next, reward, done := env.Step(envAct)
		buf.Add(obs, raw, logP, reward, value, done)
		obs = next
		if done {
			obs = env.Reset()
		}
	}
	buf.ComputeGAE(0.95, 0.95, 0)
	return agent, buf, env
}

func TestSelectActionAllocationFree(t *testing.T) {
	agent, _, env := newAllocAgent(t)
	obs := env.Reset()
	if n := testing.AllocsPerRun(50, func() { agent.SelectActionWithMean(obs) }); n != 0 {
		t.Errorf("SelectActionWithMean allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { agent.Value(obs) }); n != 0 {
		t.Errorf("Value allocates %v times per call, want 0", n)
	}
}

func TestUpdateAllocationFree(t *testing.T) {
	agent, buf, _ := newAllocAgent(t)
	agent.Update(buf) // warm-up: grows minibatch scratch, Adam state
	if n := testing.AllocsPerRun(10, func() { agent.Update(buf) }); n != 0 {
		t.Errorf("PPO Update allocates %v times per call, want 0 in steady state", n)
	}
}

func TestRolloutCollectionAllocationFree(t *testing.T) {
	agent, buf, env := newAllocAgent(t)
	// One full collect cycle per run; the arenas were grown by the warm-up
	// fill inside newAllocAgent, so Reset+Add must reuse them.
	if n := testing.AllocsPerRun(10, func() {
		buf.Reset()
		obs := env.Reset()
		for k := 0; k < 100; k++ {
			raw, envAct, logP, value, _ := agent.SelectActionWithMean(obs)
			next, reward, done := env.Step(envAct)
			buf.Add(obs, raw, logP, reward, value, done)
			obs = next
			if done {
				obs = env.Reset()
			}
		}
		buf.ComputeGAE(0.95, 0.95, 0)
	}); n != 0 {
		t.Errorf("rollout collection allocates %v times per cycle, want 0 in steady state", n)
	}
}
