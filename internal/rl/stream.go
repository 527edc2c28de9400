package rl

import "fmt"

// StreamCollector is the online-learning counterpart of the VecCollector:
// instead of driving an environment itself, it accepts externally
// produced transitions — one per live round of whatever system hosts the
// agent (the simulator's pricing rounds, in this repository) — and turns
// them into PPO optimization phases. Transitions accumulate in the
// arena-backed Rollout in exactly the order they are added; whenever
// UpdateEvery transitions have been staged since the last phase, the
// collector computes the segment's GAE (bootstrapping the value of the
// observation following the last transition, zero when that transition
// was terminal) and runs one agent Update — the paper's optimization
// phase.
//
// Determinism (rule 5 of the contract): the collector adds no ordering of
// its own — callers feed transitions serially in stream order, every
// cross-row sum inside Update happens in the rule-1 fixed-order kernels,
// and the collector consumes no RNG. A fixed transition stream therefore
// produces bit-identical weights under any GOMAXPROCS.
//
// The collector is not safe for concurrent use; the producing loop owns
// it.
type StreamCollector struct {
	agent       *PPO
	buf         *Rollout
	updateEvery int

	since   int
	total   int
	updates int
	last    UpdateStats
}

// NewStreamCollector wires an agent to an external transition stream with
// an optimization phase every updateEvery transitions (the paper's |I|).
func NewStreamCollector(agent *PPO, updateEvery int) *StreamCollector {
	if agent == nil {
		panic("rl: StreamCollector needs an agent")
	}
	if updateEvery <= 0 {
		panic(fmt.Sprintf("rl: StreamCollector updateEvery=%d must be positive", updateEvery))
	}
	return &StreamCollector{
		agent:       agent,
		buf:         NewRollout(updateEvery),
		updateEvery: updateEvery,
	}
}

// Add stages one externally produced transition: the observation the
// action was selected at, the raw normalized action sample and its
// log-probability and value estimate (as SelectActionWithMean returns
// them), the observed reward, whether the stream hit an episode
// boundary, and the observation following the transition. obs, rawAction,
// and nextObs are copied; callers may reuse their buffers.
//
// When the staged segment reaches UpdateEvery transitions, Add runs one
// PPO optimization phase over it — GAE first, bootstrapping
// V(nextObs) unless done — discards the consumed segment (PPO is
// on-policy), and returns the phase's statistics with ran == true.
func (c *StreamCollector) Add(obs, rawAction []float64, logProb, reward, value float64, done bool, nextObs []float64) (stats UpdateStats, ran bool) {
	c.buf.Add(obs, rawAction, logProb, reward, value, done)
	c.since++
	c.total++
	if c.since < c.updateEvery {
		return UpdateStats{}, false
	}
	return c.update(done, nextObs), true
}

// Flush runs an optimization phase over a partial staged segment — e.g.
// at the end of a simulation whose round count does not divide
// UpdateEvery. It is a no-op when nothing is staged. nextObs and done
// carry the bootstrap exactly as in Add.
func (c *StreamCollector) Flush(done bool, nextObs []float64) (stats UpdateStats, ran bool) {
	if c.since == 0 {
		return UpdateStats{}, false
	}
	return c.update(done, nextObs), true
}

// update closes the staged segment with its GAE pass and one agent
// Update, then rewinds the buffer arenas for the next segment.
func (c *StreamCollector) update(done bool, nextObs []float64) UpdateStats {
	bootstrap := 0.0
	if !done {
		bootstrap = c.agent.Value(nextObs)
	}
	c.buf.ComputeGAE(c.agent.cfg.Gamma, c.agent.cfg.Lambda, bootstrap)
	c.last = c.agent.Update(c.buf)
	c.buf.Reset()
	c.since = 0
	c.updates++
	return c.last
}

// Snapshot returns the stream counters — transitions ever added and
// optimization phases run — for a checkpoint's pricer section. A
// snapshot is only valid at a phase boundary: mid-segment transitions
// live in the on-policy rollout buffer, are discarded by the next
// update, and cannot be replayed on restore, so Snapshot errors while
// transitions are pending.
func (c *StreamCollector) Snapshot() (total, updates int, err error) {
	if c.since != 0 {
		return 0, 0, fmt.Errorf("rl: stream collector has %d pending transitions; snapshot only at a phase boundary", c.since)
	}
	return c.total, c.updates, nil
}

// Restore overwrites the stream counters with checkpointed values, so a
// collector rebuilt from a checkpoint reports the same Total/Updates
// the snapshotted one did. The collector must be fresh (no transitions
// staged or counted) and the counters must be consistent: every
// optimization phase consumes at least one transition.
func (c *StreamCollector) Restore(total, updates int) error {
	if c.since != 0 || c.total != 0 || c.updates != 0 {
		return fmt.Errorf("rl: restoring stream counters into a used collector (since=%d total=%d updates=%d)", c.since, c.total, c.updates)
	}
	if total < 0 || updates < 0 || updates > total {
		return fmt.Errorf("rl: restoring impossible stream counters (total=%d updates=%d)", total, updates)
	}
	c.total = total
	c.updates = updates
	return nil
}

// Pending returns the number of transitions staged since the last
// optimization phase.
func (c *StreamCollector) Pending() int { return c.since }

// UpdateEvery returns the configured optimization cadence.
func (c *StreamCollector) UpdateEvery() int { return c.updateEvery }

// Total returns the number of transitions ever added.
func (c *StreamCollector) Total() int { return c.total }

// Updates returns the number of optimization phases run.
func (c *StreamCollector) Updates() int { return c.updates }

// LastStats returns the statistics of the most recent optimization phase
// (zero before the first).
func (c *StreamCollector) LastStats() UpdateStats { return c.last }
