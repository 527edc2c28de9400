// Package rl implements the deep-reinforcement-learning substrate of the
// paper: a diagonal-Gaussian stochastic policy, a shared actor–critic
// network, Generalized Advantage Estimation, Proximal Policy Optimization
// with the clipped surrogate objective (Eqs. 14–19), and the episode-driven
// training loop of Algorithm 1.
//
// Everything is built on the Go standard library and the vtmig nn package;
// no external deep-learning framework is used.
package rl

import (
	"fmt"

	"vtmig/internal/nn"
)

// Env is a (possibly partially observable) environment with continuous
// observations and actions. The POMDP of the paper (internal/pomdp) is the
// canonical implementation.
type Env interface {
	// Reset starts a new episode and returns the initial observation.
	Reset() []float64
	// Step applies an action and returns the next observation, the scalar
	// reward, and whether the episode has terminated.
	Step(action []float64) (obs []float64, reward float64, done bool)
	// ObsDim is the length of observations returned by Reset and Step.
	ObsDim() int
	// ActDim is the length of actions expected by Step.
	ActDim() int
	// ActionBounds returns the per-dimension closed action interval
	// [lo[i], hi[i]] that Step accepts. Policies clamp sampled actions to
	// these bounds before stepping.
	ActionBounds() (lo, hi []float64)
}

// SnapshotEnv is an Env whose cross-episode state can be checkpointed at
// an episode boundary and restored into a freshly constructed,
// identically configured instance — the environment half of resume
// bit-identity (determinism contract rule 6). The paper's POMDP
// (pomdp.GameEnv) is the canonical implementation: its state is the RNG
// stream position plus the running-best utility behind the binary reward;
// everything else is rewritten by the next Reset.
type SnapshotEnv interface {
	Env
	// EnvSnapshot captures the environment's cross-episode state. Valid
	// only at an episode boundary (after the final Step of an episode or
	// before a Reset).
	EnvSnapshot() nn.EnvState
	// EnvRestore rewinds a fresh, identically configured instance to a
	// captured state. The next Reset then starts the episode the original
	// environment would have started.
	EnvRestore(st nn.EnvState) error
}

// EnvSlice is a fixed set of independently seeded environment instances
// with identical observation/action spaces, stepped in lockstep by a
// VecCollector, which steps them one after another in ascending index
// order. Instances must not share mutable state: each runs its own
// stream. Construct with NewEnvSlice.
type EnvSlice struct {
	envs   []Env
	lo, hi []float64
}

// NewEnvSlice bundles the given environments into an EnvSlice. Every
// environment must agree on the observation dimension, the action
// dimension, and the action bounds; a mismatch is a programming error and
// panics.
func NewEnvSlice(envs ...Env) *EnvSlice {
	if len(envs) == 0 {
		panic("rl: NewEnvSlice needs at least one environment")
	}
	ref := envs[0]
	lo, hi := ref.ActionBounds()
	s := &EnvSlice{
		envs: append([]Env(nil), envs...),
		lo:   append([]float64(nil), lo...),
		hi:   append([]float64(nil), hi...),
	}
	for i, e := range envs[1:] {
		if e.ObsDim() != ref.ObsDim() || e.ActDim() != ref.ActDim() {
			panic(fmt.Sprintf("rl: env %d dims (%d, %d) do not match env 0 (%d, %d)",
				i+1, e.ObsDim(), e.ActDim(), ref.ObsDim(), ref.ActDim()))
		}
		elo, ehi := e.ActionBounds()
		for d := range s.lo {
			if elo[d] != s.lo[d] || ehi[d] != s.hi[d] {
				panic(fmt.Sprintf("rl: env %d action bounds dim %d [%g, %g] do not match env 0 [%g, %g]",
					i+1, d, elo[d], ehi[d], s.lo[d], s.hi[d]))
			}
		}
	}
	return s
}

// NumEnvs returns the number of environment instances.
func (s *EnvSlice) NumEnvs() int { return len(s.envs) }

// EnvAt returns instance i (0 ≤ i < NumEnvs).
func (s *EnvSlice) EnvAt(i int) Env { return s.envs[i] }

// ObsDim returns the shared observation width.
func (s *EnvSlice) ObsDim() int { return s.envs[0].ObsDim() }

// ActDim returns the shared action width.
func (s *EnvSlice) ActDim() int { return s.envs[0].ActDim() }

// ActionBounds returns the shared action interval. The returned slices
// are owned by the EnvSlice and must not be mutated.
func (s *EnvSlice) ActionBounds() (lo, hi []float64) { return s.lo, s.hi }
