package rl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vtmig/internal/mat"
	"vtmig/internal/mathx"
	"vtmig/internal/nn"
)

// The tests in this file pin the fourth rule of the determinism contract:
// vectorized collection merges independently seeded per-env streams in
// fixed env-index order, and a single-env vectorized trainer is
// bit-identical to the classic serial collect loop.

// vecTestEnv is a seeded deterministic environment that mutates its
// observation buffer in place (like the paper's POMDP) and terminates
// after horizon steps. Its RNG runs over a counting source and its
// observation window is fully rewritten by Reset, so it supports the
// SnapshotEnv episode-boundary checkpoint contract.
type vecTestEnv struct {
	rng        *rand.Rand
	src        *mathx.CountingSource
	seed       int64
	obs        []float64
	t, horizon int
}

func newVecTestEnv(obsDim int, seed int64, horizon int) *vecTestEnv {
	src := mathx.NewCountingSource(seed)
	return &vecTestEnv{rng: rand.New(src), src: src, seed: seed, obs: make([]float64, obsDim), horizon: horizon}
}

func (e *vecTestEnv) EnvSnapshot() nn.EnvState {
	return nn.EnvState{RNG: nn.RNGState{Seed: e.seed, Calls: e.src.Calls(), State: e.src.StateSnapshot()}}
}

func (e *vecTestEnv) EnvRestore(st nn.EnvState) error {
	if st.RNG.Seed != e.seed {
		return fmt.Errorf("seed %d, want %d", st.RNG.Seed, e.seed)
	}
	src, err := mathx.NewCountingSourceFromState(st.RNG.Seed, st.RNG.Calls, st.RNG.State)
	if err != nil {
		return err
	}
	e.src = src
	e.rng = rand.New(e.src)
	return nil
}

func (e *vecTestEnv) Reset() []float64 {
	e.t = 0
	for i := range e.obs {
		e.obs[i] = e.rng.Float64()
	}
	return e.obs
}

func (e *vecTestEnv) Step(action []float64) ([]float64, float64, bool) {
	e.t++
	for i := range e.obs {
		e.obs[i] = e.rng.Float64()
	}
	return e.obs, action[0] * (0.1 + e.obs[0]*0.01), e.t >= e.horizon
}

func (e *vecTestEnv) ObsDim() int                      { return len(e.obs) }
func (e *vecTestEnv) ActDim() int                      { return 1 }
func (e *vecTestEnv) ActionBounds() (lo, hi []float64) { return []float64{0}, []float64{1} }

// newVecTestSlice builds n envs with staggered horizons so some episodes
// terminate before the trainer's round bound and the live-set compaction
// path runs.
func newVecTestSlice(n, obsDim int, seed int64, horizon int) *EnvSlice {
	envs := make([]Env, n)
	for i := range envs {
		h := horizon
		if h > 5 {
			h = horizon - 2*i // staggered early termination
			if h < 3 {
				h = 3
			}
		}
		envs[i] = newVecTestEnv(obsDim, seed+int64(i), h)
	}
	return NewEnvSlice(envs...)
}

// statsEqualBits reports the first diverging episode between two runs.
func statsEqualBits(a, b []EpisodeStats) (string, bool) {
	if len(a) != len(b) {
		return fmt.Sprintf("episode count %d vs %d", len(a), len(b)), false
	}
	for i := range a {
		if math.Float64bits(a[i].Return) != math.Float64bits(b[i].Return) {
			return fmt.Sprintf("episode %d return %v vs %v", i, a[i].Return, b[i].Return), false
		}
		if a[i].FinalUpdate != b[i].FinalUpdate {
			return fmt.Sprintf("episode %d final update %+v vs %+v", i, a[i].FinalUpdate, b[i].FinalUpdate), false
		}
	}
	return "", true
}

// serialLoop replays the classic serial trainer body (Algorithm 1, lines
// 4–14) with the corrected transition semantics, anchoring what "serial
// collection" means for rule 4: the stored observation is a PRE-step
// snapshot — the s_t the action was selected at — because in-place
// environments mutate their observation slice during Step. (The seed's
// loop passed the aliased slice to Add after the step and therefore
// stored s_{t+1} in the Obs field; PR 5 fixed the collector, and this
// replica pins the corrected behavior.)
func serialLoop(env Env, agent *PPO, cfg TrainerConfig) []float64 {
	buf := NewRollout(cfg.RoundsPerEpisode)
	preObs := make([]float64, env.ObsDim())
	var rets []float64
	for e := 0; e < cfg.Episodes; e++ {
		obs := env.Reset()
		buf.Reset()
		var ret float64
		sinceUpdate := 0
		for k := 0; k < cfg.RoundsPerEpisode; k++ {
			raw, envAct, logP, value := agent.SelectAction(obs)
			copy(preObs, obs)
			next, reward, done := env.Step(envAct)
			terminal := done || k == cfg.RoundsPerEpisode-1
			buf.Add(preObs, raw, logP, reward, value, terminal)
			ret += reward
			obs = next
			sinceUpdate++
			if sinceUpdate >= cfg.UpdateEvery || terminal {
				bootstrap := 0.0
				if !terminal {
					bootstrap = agent.Value(obs)
				}
				buf.ComputeGAE(agent.cfg.Gamma, agent.cfg.Lambda, bootstrap)
				agent.Update(buf)
				sinceUpdate = 0
			}
			if done {
				break
			}
		}
		rets = append(rets, ret)
	}
	return rets
}

// TestSingleEnvTrainerMatchesSerialLoop pins the rule-4 anchor: a
// single-env Trainer (which routes through the VecCollector) reproduces
// the corrected serial collect loop bit for bit — including when |I| does
// not divide K, when |I| exceeds K, and when the episode terminates
// before the round bound.
func TestSingleEnvTrainerMatchesSerialLoop(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     TrainerConfig
		horizon int
	}{
		{name: "dividing", cfg: TrainerConfig{Episodes: 3, RoundsPerEpisode: 40, UpdateEvery: 10}, horizon: 100},
		{name: "non-dividing", cfg: TrainerConfig{Episodes: 3, RoundsPerEpisode: 7, UpdateEvery: 3}, horizon: 100},
		{name: "interval-exceeds-episode", cfg: TrainerConfig{Episodes: 3, RoundsPerEpisode: 10, UpdateEvery: 20}, horizon: 100},
		{name: "early-done", cfg: TrainerConfig{Episodes: 3, RoundsPerEpisode: 40, UpdateEvery: 10}, horizon: 23},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pcfg := DefaultPPOConfig()
			pcfg.Seed = 5

			oldAgent := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
			oldRets := serialLoop(newVecTestEnv(6, 21, tc.horizon), oldAgent, tc.cfg)

			newAgent := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
			stats := NewTrainer(newVecTestEnv(6, 21, tc.horizon), newAgent, tc.cfg).Run()

			if len(stats) != len(oldRets) {
				t.Fatalf("episode count %d, want %d", len(stats), len(oldRets))
			}
			for i := range oldRets {
				if math.Float64bits(oldRets[i]) != math.Float64bits(stats[i].Return) {
					t.Fatalf("episode %d return %v, serial loop %v", i, stats[i].Return, oldRets[i])
				}
			}
			if diff, ok := paramsEqualBits(oldAgent.Params(), newAgent.Params()); !ok {
				t.Fatalf("weights diverged from serial loop: %s", diff)
			}
		})
	}
}

// idEnv reports a constant observation equal to its id, never terminates
// on its own, and rewards its id — transitions are attributable to their
// env.
type idEnv struct {
	id  float64
	obs []float64
}

func (e *idEnv) Reset() []float64 {
	e.obs[0] = e.id
	return e.obs
}
func (e *idEnv) Step(action []float64) ([]float64, float64, bool) { return e.obs, e.id, false }
func (e *idEnv) ObsDim() int                                      { return 1 }
func (e *idEnv) ActDim() int                                      { return 1 }
func (e *idEnv) ActionBounds() (lo, hi []float64)                 { return []float64{0}, []float64{1} }

// TestVecMergeEnvOrder pins the fixed env-index merge order: with W
// distinguishable envs, every merged segment must lay the per-env
// sub-segments out ascending by env index, each in round order.
func TestVecMergeEnvOrder(t *testing.T) {
	const envs = 3
	es := make([]Env, envs)
	for i := range es {
		es[i] = &idEnv{id: float64(i + 1), obs: make([]float64, 1)}
	}
	agent := NewPPO(1, 1, []float64{0}, []float64{1}, DefaultPPOConfig())
	col := NewVecCollector(NewEnvSlice(es...), agent)
	buf := NewRollout(0)

	col.Begin(envs)
	// two merge segments: rounds {0,1} and rounds {2,3,4}
	col.Step(false)
	col.Step(false)
	col.Merge(buf)
	col.Step(false)
	col.Step(false)
	col.Step(true)
	col.Merge(buf)

	want := make([]float64, 0, 15)
	for _, rounds := range []int{2, 3} {
		for e := 1; e <= envs; e++ {
			for r := 0; r < rounds; r++ {
				want = append(want, float64(e))
			}
		}
	}
	steps := buf.Steps()
	if len(steps) != len(want) {
		t.Fatalf("merged %d transitions, want %d", len(steps), len(want))
	}
	for i, tr := range steps {
		if tr.Obs[0] != want[i] {
			t.Fatalf("transition %d from env %g, want env %g", i, tr.Obs[0], want[i])
		}
		if tr.Done != (i >= 2*envs && (i-2*envs)%3 == 2) {
			t.Fatalf("transition %d terminal flag %v", i, tr.Done)
		}
	}
}

// TestVecGAEBoundaries pins mid-episode GAE segmentation under vectorized
// collection: each merged per-env segment must run the GAE recursion over
// exactly its own transitions, bootstrapped with V(current obs) when the
// segment ends mid-episode and 0 at the terminal round. The expected
// advantages are recomputed from the stored (Reward, Value, Done) fields:
// with no optimization between merges, a mid-episode segment's bootstrap
// equals the Value recorded on the same env's next transition.
func TestVecGAEBoundaries(t *testing.T) {
	const (
		envs = 2
		K    = 7
	)
	pcfg := DefaultPPOConfig()
	pcfg.Seed = 29
	vec := newVecTestSlice(envs, 4, 31, K+5)
	agent := NewPPO(4, 1, []float64{0}, []float64{1}, pcfg)
	col := NewVecCollector(vec, agent)
	buf := NewRollout(0)

	col.Begin(envs)
	segRounds := []int{2, 2, 3} // merge boundaries mid-episode and at the end
	for si, rounds := range segRounds {
		for r := 0; r < rounds; r++ {
			last := si == len(segRounds)-1 && r == rounds-1
			col.Step(last)
		}
		col.Merge(buf)
	}

	steps := buf.Steps()
	if len(steps) != envs*K {
		t.Fatalf("collected %d transitions, want %d", len(steps), envs*K)
	}
	// Segment layout: per merge, env-ascending sub-segments of equal
	// length (no env terminates early here).
	type segment struct{ lo, hi, env int }
	var segs []segment
	idx := 0
	for _, rounds := range segRounds {
		for e := 0; e < envs; e++ {
			segs = append(segs, segment{lo: idx, hi: idx + rounds, env: e})
			idx += rounds
		}
	}
	// nextSegStart[e] maps env e's segment to the index of its next
	// segment's first transition.
	gamma, lambda := pcfg.Gamma, pcfg.Lambda
	for si, sg := range segs {
		bootstrap := 0.0
		if !steps[sg.hi-1].Done {
			next := -1
			for _, s2 := range segs[si+1:] {
				if s2.env == sg.env {
					next = s2.lo
					break
				}
			}
			if next < 0 {
				t.Fatalf("segment %d (env %d) ends mid-episode but has no successor", si, sg.env)
			}
			bootstrap = steps[next].Value
		}
		nextValue, nextAdv := bootstrap, 0.0
		for i := sg.hi - 1; i >= sg.lo; i-- {
			s := steps[i]
			notDone := 1.0
			if s.Done {
				notDone = 0
			}
			delta := s.Reward + gamma*nextValue*notDone - s.Value
			adv := delta + gamma*lambda*notDone*nextAdv
			if math.Float64bits(adv) != math.Float64bits(s.Advantage) {
				t.Fatalf("segment %d (env %d) transition %d: advantage %v, want %v",
					si, sg.env, i, s.Advantage, adv)
			}
			if want := adv + s.Value; math.Float64bits(want) != math.Float64bits(s.Return) {
				t.Fatalf("segment %d transition %d: return %v, want %v", si, i, s.Return, want)
			}
			nextValue, nextAdv = s.Value, adv
		}
	}
}

// TestVecCollectAllocationFree locks in the zero-allocation steady state
// of vectorized collection: after a warm-up block has grown the staging
// buffers and matrices, a full collect block (Begin, steps, merges) must
// not touch the heap.
func TestVecCollectAllocationFree(t *testing.T) {
	vec := newVecTestSlice(3, 6, 43, 200)
	agent := NewPPO(6, 1, []float64{0}, []float64{1}, DefaultPPOConfig())
	col := NewVecCollector(vec, agent)
	buf := NewRollout(0)

	block := func() {
		buf.Reset()
		col.Begin(3)
		for k := 0; k < 20; k++ {
			col.Step(k == 19)
			if (k+1)%5 == 0 {
				col.Merge(buf)
			}
		}
	}
	block() // warm-up grows scratch
	if n := testing.AllocsPerRun(10, block); n != 0 {
		t.Errorf("vectorized collection allocates %v times per block, want 0 in steady state", n)
	}
}

// TestSelectActionBatchMatchesSerial pins the batched action sampler: row
// r must be bit-identical to a serial SelectAction call sequence on the
// same observations — same forwards, same RNG stream.
func TestSelectActionBatchMatchesSerial(t *testing.T) {
	pcfg := DefaultPPOConfig()
	pcfg.Seed = 77
	serial := NewPPO(5, 2, []float64{0, -1}, []float64{1, 1}, pcfg)
	batched := NewPPO(5, 2, []float64{0, -1}, []float64{1, 1}, pcfg)

	rng := rand.New(rand.NewSource(8))
	const rows = 9
	obs := mat.New(rows, 5)
	obs.Randomize(rng, 1)

	var raw, envAct mat.Matrix
	logP := make([]float64, rows)
	values := make([]float64, rows)
	batched.SelectActionBatch(obs, &raw, &envAct, logP, values)

	for r := 0; r < rows; r++ {
		sRaw, sEnv, sLogP, sV := serial.SelectAction(obs.Row(r))
		for d := 0; d < 2; d++ {
			if math.Float64bits(sRaw[d]) != math.Float64bits(raw.At(r, d)) {
				t.Fatalf("row %d raw[%d]: %v vs %v", r, d, raw.At(r, d), sRaw[d])
			}
			if math.Float64bits(sEnv[d]) != math.Float64bits(envAct.At(r, d)) {
				t.Fatalf("row %d env[%d]: %v vs %v", r, d, envAct.At(r, d), sEnv[d])
			}
		}
		if math.Float64bits(sLogP) != math.Float64bits(logP[r]) {
			t.Fatalf("row %d logP: %v vs %v", r, logP[r], sLogP)
		}
		if math.Float64bits(sV) != math.Float64bits(values[r]) {
			t.Fatalf("row %d value: %v vs %v", r, values[r], sV)
		}
	}

	if n := testing.AllocsPerRun(20, func() {
		batched.SelectActionBatch(obs, &raw, &envAct, logP, values)
	}); n != 0 {
		t.Errorf("SelectActionBatch allocates %v times per call, want 0 once warm", n)
	}
}

// TestSelectActionWithMeanMatchesPair pins the combined readout against
// the MeanAction + SelectAction pair it replaces: same mean, same sample,
// same RNG stream, no allocation once warm.
func TestSelectActionWithMeanMatchesPair(t *testing.T) {
	pcfg := DefaultPPOConfig()
	pcfg.Seed = 19
	pair := NewPPO(4, 1, []float64{2}, []float64{9}, pcfg)
	comb := NewPPO(4, 1, []float64{2}, []float64{9}, pcfg)

	rng := rand.New(rand.NewSource(6))
	obs := make([]float64, 4)
	for step := 0; step < 5; step++ {
		for i := range obs {
			obs[i] = rng.Float64()
		}
		wantMean := append([]float64(nil), pair.MeanAction(obs)...)
		wantRaw, wantEnv, wantLogP, wantV := pair.SelectAction(obs)

		raw, env, logP, v, meanEnv := comb.SelectActionWithMean(obs)
		if math.Float64bits(meanEnv[0]) != math.Float64bits(wantMean[0]) {
			t.Fatalf("step %d mean: %v vs %v", step, meanEnv[0], wantMean[0])
		}
		if math.Float64bits(raw[0]) != math.Float64bits(wantRaw[0]) ||
			math.Float64bits(env[0]) != math.Float64bits(wantEnv[0]) ||
			math.Float64bits(logP) != math.Float64bits(wantLogP) ||
			math.Float64bits(v) != math.Float64bits(wantV) {
			t.Fatalf("step %d sample diverged from SelectAction", step)
		}
	}
	if n := testing.AllocsPerRun(20, func() { comb.SelectActionWithMean(obs) }); n != 0 {
		t.Errorf("SelectActionWithMean allocates %v times per call, want 0 once warm", n)
	}
}

func TestSelectActionBatchLengthMismatchPanics(t *testing.T) {
	agent := NewPPO(3, 1, []float64{0}, []float64{1}, DefaultPPOConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("short logP/values did not panic")
		}
	}()
	var raw, envAct mat.Matrix
	agent.SelectActionBatch(mat.New(4, 3), &raw, &envAct, make([]float64, 3), make([]float64, 4))
}

// TestEnvSliceValidation pins the EnvSlice construction contract.
func TestEnvSliceValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty", func() { NewEnvSlice() })
	mustPanic("dim mismatch", func() {
		NewEnvSlice(newVecTestEnv(4, 1, 10), newVecTestEnv(5, 1, 10))
	})

	vec := newVecTestSlice(3, 4, 1, 10)
	if vec.NumEnvs() != 3 || vec.ObsDim() != 4 || vec.ActDim() != 1 {
		t.Fatalf("EnvSlice shape: envs=%d obs=%d act=%d", vec.NumEnvs(), vec.ObsDim(), vec.ActDim())
	}
	lo, hi := vec.ActionBounds()
	if lo[0] != 0 || hi[0] != 1 {
		t.Fatalf("EnvSlice bounds [%g, %g]", lo[0], hi[0])
	}
	if vec.EnvAt(2) == nil {
		t.Fatal("EnvAt(2) nil")
	}
}

// TestTrainerOnEpisodeEarlyStop pins the early-stop contract under serial
// and vectorized collection: serial training stops immediately after the
// rejecting episode; vectorized training stops at the end of its episode
// block.
func TestTrainerOnEpisodeEarlyStop(t *testing.T) {
	tcfg := TrainerConfig{Episodes: 9, RoundsPerEpisode: 12, UpdateEvery: 6}
	pcfg := DefaultPPOConfig()
	pcfg.Seed = 2

	t.Run("serial", func(t *testing.T) {
		agent := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
		trainer := NewTrainer(newVecTestEnv(6, 3, 100), agent, tcfg)
		trainer.OnEpisode = func(s EpisodeStats) bool { return s.Episode < 2 }
		stats := trainer.Run()
		if len(stats) != 3 {
			t.Fatalf("serial early stop ran %d episodes, want 3", len(stats))
		}
	})

	t.Run("vectorized", func(t *testing.T) {
		agent := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
		trainer := NewVecTrainer(newVecTestSlice(4, 6, 3, 100), agent, tcfg)
		trainer.OnEpisode = func(s EpisodeStats) bool { return s.Episode != 1 }
		stats := trainer.Run()
		if len(stats) != 4 {
			t.Fatalf("vectorized early stop ran %d episodes, want 4 (one block)", len(stats))
		}
		for i, s := range stats {
			if s.Episode != i {
				t.Fatalf("episode %d numbered %d", i, s.Episode)
			}
		}
	})
}

// TestVecTrainerEpisodeCountRemainder checks that a final partial block
// (Episodes not a multiple of NumEnvs) runs exactly the remaining
// episodes.
func TestVecTrainerEpisodeCountRemainder(t *testing.T) {
	tcfg := TrainerConfig{Episodes: 5, RoundsPerEpisode: 8, UpdateEvery: 4}
	pcfg := DefaultPPOConfig()
	pcfg.Seed = 6
	agent := NewPPO(6, 1, []float64{0}, []float64{1}, pcfg)
	stats := NewVecTrainer(newVecTestSlice(3, 6, 11, 100), agent, tcfg).Run()
	if len(stats) != 5 {
		t.Fatalf("ran %d episodes, want 5", len(stats))
	}
	for i, s := range stats {
		if s.Episode != i {
			t.Fatalf("episode %d numbered %d", i, s.Episode)
		}
		if s.MeanReward != s.Return/8 {
			t.Fatalf("episode %d mean reward %v, return %v", i, s.MeanReward, s.Return)
		}
	}
}
