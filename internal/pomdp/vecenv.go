package pomdp

import (
	"fmt"

	"vtmig/internal/rl"
)

// vecSeedStride separates the per-instance environment seeds of a
// vectorized environment. It is large so that derived streams stay clear
// of the small additive offsets the experiment harness uses around a base
// seed (eval env Seed+1, restart r Seed+r, sweep cells): instance i of a
// vectorized environment never collides with another nearby
// configuration's stream.
const vecSeedStride = 1_000_003

// VecSeed returns the seed of instance i of a vectorized environment with
// the given base seed. Instance 0 keeps the base seed, so a one-instance
// bundle is bit-identical to the classic single environment.
func VecSeed(base int64, i int) int64 { return base + int64(i)*vecSeedStride }

// NewVecEnv builds n independently seeded instances of the POMDP for
// vectorized rollout collection (rl.NewVecTrainer): instance i runs the
// same game and configuration with seed VecSeed(cfg.Seed, i), so the
// per-env episode streams are independent while the whole bundle stays
// reproducible from cfg.Seed (the fourth rule of the determinism
// contract). The instances share the read-only *stackelberg.Game and
// nothing else; each owns its history window, RNG, and evaluation
// scratch, so stepping one never changes another's stream. The collector
// steps them one after another in ascending instance order.
func NewVecEnv(cfg Config, n int) (*rl.EnvSlice, error) {
	if n < 1 {
		return nil, fmt.Errorf("pomdp: vectorized env needs at least one instance, got %d", n)
	}
	envs := make([]rl.Env, n)
	for i := range envs {
		c := cfg
		c.Seed = VecSeed(cfg.Seed, i)
		env, err := NewGameEnv(c)
		if err != nil {
			return nil, fmt.Errorf("pomdp: building vec env %d: %w", i, err)
		}
		envs[i] = env
	}
	return rl.NewEnvSlice(envs...), nil
}
