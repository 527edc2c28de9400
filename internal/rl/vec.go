package rl

import (
	"fmt"

	"vtmig/internal/mat"
)

// This file implements vectorized rollout collection: a VecCollector
// steps W independently seeded environment instances in lockstep and
// batches the policy evaluation of every live environment through the
// batched nn/mat kernels. Per-env transitions are staged in per-env
// buffers and merged into the shared Rollout in fixed env-index order,
// each env's segment receiving its own GAE pass and bootstrap.
//
// Determinism (rule 4 of the contract, see doc.go): the policy forward
// pass is one batched call over the live envs in ascending env order (its
// rows are bit-identical to per-row serial calls, rule 1); action sampling
// consumes the single learner RNG serially, env-ascending; environment
// streams are independently seeded and stepped env-ascending, each into
// its own staging buffer; and the merge replays the staged transitions
// env-ascending. With a single environment the collector reproduces the
// serial collect loop (SelectActionWithMean / pre-step-obs Add / Step)
// bit for bit.

// VecCollector drives lockstep episode collection over an EnvSlice with a
// shared PPO policy. It is created by the Trainer (or directly, for
// benchmarks) and reused across episode blocks; steady-state collection is
// allocation-free after the first block has grown the scratch.
type VecCollector struct {
	vec   *EnvSlice
	agent *PPO

	// per-env state, sized to NumEnvs.
	//
	// obs[e] is env e's observation slice: the slice returned by the
	// env's last Reset/Step, which in-place environments (the paper's
	// POMDP, whose Step rewrites its history window) mutate under us.
	// Each round therefore snapshots the live observations into obsB
	// BEFORE the policy pass and the step; the staged transition records
	// that pre-step copy — the s_t of Algorithm 1's (s_t, a_t, r_t,
	// s_{t+1}) — never the slice the step just mutated. (The pre-PR-5
	// collector inherited the seed's aliasing quirk and stored the
	// post-step contents; see the ROADMAP history.)
	obs     [][]float64
	staged  []*Rollout // per-env staging buffers, merged env-ascending
	returns []float64  // per-env accumulated episode return

	active int   // envs participating in the current block
	live   []int // ascending indices of envs still running

	// lockstep-round scratch: row r of each matrix belongs to live[r]
	obsB, rawB, envActB mat.Matrix
	logP, values        []float64

	// bootstrap scratch for Merge
	bootObs  mat.Matrix
	bootVals []float64
	bootEnvs []int
}

// NewVecCollector wires a set of environments and a PPO learner
// together.
func NewVecCollector(vec *EnvSlice, agent *PPO) *VecCollector {
	if vec.ObsDim() != agent.net.ObsDim() || vec.ActDim() != agent.net.ActDim() {
		panic(fmt.Sprintf("rl: VecCollector env dims (%d, %d) do not match agent (%d, %d)",
			vec.ObsDim(), vec.ActDim(), agent.net.ObsDim(), agent.net.ActDim()))
	}
	n := vec.NumEnvs()
	c := &VecCollector{
		vec:     vec,
		agent:   agent,
		obs:     make([][]float64, n),
		staged:  make([]*Rollout, n),
		returns: make([]float64, n),
		live:    make([]int, 0, n),
		logP:    make([]float64, n),
		values:  make([]float64, n),

		bootVals: make([]float64, n),
		bootEnvs: make([]int, 0, n),
	}
	for e := range c.staged {
		c.staged[e] = NewRollout(0)
	}
	return c
}

// NumEnvs returns the size of the underlying EnvSlice.
func (c *VecCollector) NumEnvs() int { return c.vec.NumEnvs() }

// Begin starts a new episode block over the first active environments:
// every participating env is Reset (in env-index order, so per-env RNG
// consumption is reproducible), staging buffers are rewound, and returns
// are zeroed.
func (c *VecCollector) Begin(active int) {
	if active < 1 || active > c.vec.NumEnvs() {
		panic(fmt.Sprintf("rl: Begin(%d) out of range [1, %d]", active, c.vec.NumEnvs()))
	}
	c.active = active
	c.live = c.live[:0]
	for e := 0; e < active; e++ {
		c.obs[e] = c.vec.EnvAt(e).Reset()
		c.staged[e].Reset()
		c.returns[e] = 0
		c.live = append(c.live, e)
	}
}

// Live returns the number of environments still running in the current
// block.
func (c *VecCollector) Live() int { return len(c.live) }

// Returns returns the per-env accumulated episode returns of the current
// block (indexed by env, length NumEnvs; only the first Begin(active)
// entries are meaningful). The slice is collector-owned.
func (c *VecCollector) Returns() []float64 { return c.returns }

// Step advances every live environment by one lockstep round: one batched
// policy evaluation over the live observations (env-ascending), serial
// env-ascending action sampling from the learner's RNG, then one
// env-ascending stepping loop. Transitions are staged per env.
// forceTerminal marks every staged transition terminal (the trainer sets
// it on the last round of an episode, matching the serial loop's
// done || k == K-1). It returns the number of transitions staged this
// round.
//
// Each env applies its sampled action, stages the transition in its own
// buffer, and takes over the returned observation slice. The Add records
// the pre-step observation copy from obsB — the observation the action
// was selected at — so the stored s_t is correct even for environments
// that rewrite their observation slice in place during Step.
func (c *VecCollector) Step(forceTerminal bool) int {
	live := len(c.live)
	if live == 0 {
		return 0
	}
	obsDim := c.vec.ObsDim()
	c.obsB.Resize(live, obsDim)
	for r, e := range c.live {
		copy(c.obsB.Row(r), c.obs[e])
	}
	c.agent.SelectActionBatch(&c.obsB, &c.rawB, &c.envActB, c.logP[:live], c.values[:live])

	kept := c.live[:0]
	for r, e := range c.live {
		next, reward, done := c.vec.EnvAt(e).Step(c.envActB.Row(r))
		c.staged[e].Add(c.obsB.Row(r), c.rawB.Row(r), c.logP[r], reward, c.values[r], done || forceTerminal)
		c.returns[e] += reward
		c.obs[e] = next
		if !done {
			kept = append(kept, e)
		}
	}
	c.live = kept
	return live
}

// Merge flushes every staged per-env segment into buf in fixed env-index
// order and computes each segment's GAE with its own bootstrap: zero when
// the segment ends terminal, V(current obs) otherwise — exactly the
// serial loop's `if !terminal { bootstrap = V(next) }`. Bootstrap values
// are evaluated in one batched critic pass over the non-terminal envs in
// ascending order. Staging buffers are rewound for the next segment.
func (c *VecCollector) Merge(buf *Rollout) {
	// Gather the envs that need a bootstrap value (segment does not end
	// terminal), ascending.
	c.bootEnvs = c.bootEnvs[:0]
	for e := 0; e < c.active; e++ {
		st := c.staged[e]
		if st.Len() == 0 {
			continue
		}
		if !st.steps[st.Len()-1].Done {
			c.bootEnvs = append(c.bootEnvs, e)
		}
	}
	if len(c.bootEnvs) > 0 {
		c.bootObs.Resize(len(c.bootEnvs), c.vec.ObsDim())
		for r, e := range c.bootEnvs {
			copy(c.bootObs.Row(r), c.obs[e])
		}
		c.agent.Values(&c.bootObs, c.bootVals[:len(c.bootEnvs)])
	}

	gamma, lambda := c.agent.cfg.Gamma, c.agent.cfg.Lambda
	bi := 0
	for e := 0; e < c.active; e++ {
		st := c.staged[e]
		if st.Len() == 0 {
			continue
		}
		bootstrap := 0.0
		if bi < len(c.bootEnvs) && c.bootEnvs[bi] == e {
			bootstrap = c.bootVals[bi]
			bi++
		}
		buf.AppendFrom(st)
		buf.ComputeGAE(gamma, lambda, bootstrap)
		st.Reset()
	}
}
