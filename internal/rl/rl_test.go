package rl

import (
	"math"
	"math/rand"
	"testing"

	"vtmig/internal/mat"
	"vtmig/internal/mathx"
)

func TestGaussianLogProbMatchesDensity(t *testing.T) {
	tests := []struct {
		name                string
		action, mean, logSd []float64
	}{
		{"standard", []float64{0}, []float64{0}, []float64{0}},
		{"shifted", []float64{1.5}, []float64{0.5}, []float64{0}},
		{"scaled", []float64{2}, []float64{1}, []float64{math.Log(2)}},
		{"multidim", []float64{0.1, -0.4}, []float64{0, 0}, []float64{0.2, -0.3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var want float64
			for i := range tt.mean {
				sd := math.Exp(tt.logSd[i])
				z := (tt.action[i] - tt.mean[i]) / sd
				want += math.Log(math.Exp(-0.5*z*z) / (sd * math.Sqrt(2*math.Pi)))
			}
			got := gaussianLogProb(tt.action, tt.mean, tt.logSd)
			if !mathx.AlmostEqual(got, want, 1e-9) {
				t.Errorf("logProb = %v, want %v", got, want)
			}
		})
	}
}

func TestGaussianLogProbGradsNumeric(t *testing.T) {
	action := []float64{0.8, -1.2}
	mean := []float64{0.3, 0.1}
	logStd := []float64{-0.2, 0.4}
	dMean := make([]float64, 2)
	dLogStd := make([]float64, 2)
	gaussianLogProbGrads(action, mean, logStd, dMean, dLogStd)

	const h = 1e-6
	for i := range mean {
		mp := append([]float64(nil), mean...)
		mp[i] += h
		mm := append([]float64(nil), mean...)
		mm[i] -= h
		numeric := (gaussianLogProb(action, mp, logStd) - gaussianLogProb(action, mm, logStd)) / (2 * h)
		if !mathx.AlmostEqual(dMean[i], numeric, 1e-5) {
			t.Errorf("dMean[%d] = %v, numeric %v", i, dMean[i], numeric)
		}
		lp := append([]float64(nil), logStd...)
		lp[i] += h
		lm := append([]float64(nil), logStd...)
		lm[i] -= h
		numeric = (gaussianLogProb(action, mean, lp) - gaussianLogProb(action, mean, lm)) / (2 * h)
		if !mathx.AlmostEqual(dLogStd[i], numeric, 1e-5) {
			t.Errorf("dLogStd[%d] = %v, numeric %v", i, dLogStd[i], numeric)
		}
	}
}

func TestGaussianEntropy(t *testing.T) {
	// Entropy of N(., 1) is 0.5*log(2πe) ≈ 1.4189.
	got := gaussianEntropy([]float64{0})
	want := 0.5 * math.Log(2*math.Pi*math.E)
	if !mathx.AlmostEqual(got, want, 1e-9) {
		t.Errorf("entropy = %v, want %v", got, want)
	}
	// Doubling sigma adds log 2.
	got2 := gaussianEntropy([]float64{math.Log(2)})
	if !mathx.AlmostEqual(got2-got, math.Log(2), 1e-9) {
		t.Errorf("entropy difference = %v, want log 2", got2-got)
	}
}

func TestGaussianSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mean := []float64{2}
	logStd := []float64{math.Log(0.5)}
	const n = 20000
	samples := make([]float64, n)
	var sum float64
	for i := range samples {
		gaussianSample(rng, mean, logStd, samples[i:i+1])
		sum += samples[i]
	}
	m := sum / n
	var ss float64
	for _, x := range samples {
		ss += (x - m) * (x - m)
	}
	std := math.Sqrt(ss / (n - 1))
	if !mathx.AlmostEqual(m, 2, 0.02) {
		t.Errorf("sample mean = %v, want ~2", m)
	}
	if !mathx.AlmostEqual(std, 0.5, 0.02) {
		t.Errorf("sample std = %v, want ~0.5", std)
	}
}

func TestActorCriticShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ac := NewActorCritic(6, 2, []int{8, 8}, 2 /*tanh*/, -0.5, rng)
	mean, logStd, values := ac.ForwardBatch(mat.New(3, 6))
	if mean.Rows != 3 || mean.Cols != 2 || len(logStd) != 2 || len(values) != 3 {
		t.Fatalf("head shapes = %dx%d/%d/%d, want 3x2/2/3", mean.Rows, mean.Cols, len(logStd), len(values))
	}
	if logStd[0] != -0.5 {
		t.Errorf("initial logStd = %v, want -0.5", logStd[0])
	}
	// trunk(2 layers × 2 params) + 2 heads × 2 params + logstd = 9.
	if got := len(ac.Params()); got != 9 {
		t.Errorf("param count = %d, want 9", got)
	}
}

func TestActorCriticValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"bad obs", func() { NewActorCritic(0, 1, []int{4}, 2, 0, rng) }},
		{"bad act", func() { NewActorCritic(1, 0, []int{4}, 2, 0, rng) }},
		{"no hidden", func() { NewActorCritic(1, 1, nil, 2, 0, rng) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.f()
		})
	}
}

// TestActorCriticGradCheck verifies the shared-trunk backward pass, one
// row through BackwardBatch, against finite differences for the scalar
// loss L = cm·mean + cv·value + cs·logstd.
func TestActorCriticGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ac := NewActorCritic(4, 1, []int{6, 5}, 2 /*tanh*/, -0.3, rng)
	obs := []float64{0.2, -0.7, 1.1, 0.4}
	const cm, cv, cs = 0.9, -1.4, 0.6

	loss := func() float64 {
		mean, logStd, values := ac.ForwardBatch(mat.FromSlice(1, len(obs), obs))
		return cm*mean.Data[0] + cv*values[0] + cs*logStd[0]
	}

	for _, p := range ac.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
	ac.ForwardBatch(mat.FromSlice(1, len(obs), obs))
	ac.BackwardBatch(mat.FromSlice(1, 1, []float64{cm}), mat.FromSlice(1, 1, []float64{cs}), []float64{cv})

	const h = 1e-6
	for _, p := range ac.Params() {
		for i := range p.Value {
			orig := p.Value[i]
			p.Value[i] = orig + h
			up := loss()
			p.Value[i] = orig - h
			down := loss()
			p.Value[i] = orig
			numeric := (up - down) / (2 * h)
			if !mathx.AlmostEqual(p.Grad[i], numeric, 1e-4) {
				t.Fatalf("grad check failed at %s[%d]: analytic %v, numeric %v", p.Name, i, p.Grad[i], numeric)
			}
		}
	}
}

func TestRolloutGAEHandComputed(t *testing.T) {
	// Two steps, gamma=0.5, lambda=0.5, bootstrap V=2.
	// Step 1: r=1, V=0.5; step 2: r=2, V=1 (not terminal).
	buf := NewRollout(2)
	buf.Add([]float64{0}, []float64{0}, 0, 1, 0.5, false)
	buf.Add([]float64{0}, []float64{0}, 0, 2, 1, false)
	buf.ComputeGAE(0.5, 0.5, 2)
	s := buf.Steps()
	// delta2 = 2 + 0.5*2 - 1 = 2 ; A2 = 2
	// delta1 = 1 + 0.5*1 - 0.5 = 1 ; A1 = 1 + 0.25*2 = 1.5
	if !mathx.AlmostEqual(s[1].Advantage, 2, 1e-12) {
		t.Errorf("A2 = %v, want 2", s[1].Advantage)
	}
	if !mathx.AlmostEqual(s[0].Advantage, 1.5, 1e-12) {
		t.Errorf("A1 = %v, want 1.5", s[0].Advantage)
	}
	if !mathx.AlmostEqual(s[0].Return, 2.0, 1e-12) {
		t.Errorf("Return1 = %v, want 2.0", s[0].Return)
	}
}

func TestRolloutGAETerminalCutsBootstrap(t *testing.T) {
	buf := NewRollout(1)
	buf.Add([]float64{0}, []float64{0}, 0, 3, 1, true)
	buf.ComputeGAE(0.9, 0.95, 100) // bootstrap must be ignored after done
	if got := buf.Steps()[0].Advantage; !mathx.AlmostEqual(got, 2, 1e-12) {
		t.Errorf("terminal advantage = %v, want 3-1=2", got)
	}
}

func TestRolloutSegmentedGAE(t *testing.T) {
	// Two ComputeGAE calls must cover disjoint segments and leave the
	// first segment untouched by the second call.
	buf := NewRollout(4)
	buf.Add([]float64{0}, []float64{0}, 0, 1, 0, false)
	buf.ComputeGAE(1, 1, 0)
	firstAdv := buf.Steps()[0].Advantage
	buf.Add([]float64{0}, []float64{0}, 0, 5, 0, false)
	buf.ComputeGAE(1, 1, 0)
	if buf.Steps()[0].Advantage != firstAdv {
		t.Error("second ComputeGAE modified the first segment")
	}
	if got := buf.Steps()[1].Advantage; !mathx.AlmostEqual(got, 5, 1e-12) {
		t.Errorf("second segment advantage = %v, want 5", got)
	}
}

func TestRolloutNormalizeAdvantages(t *testing.T) {
	buf := NewRollout(3)
	for _, r := range []float64{1, 2, 3} {
		buf.Add([]float64{0}, []float64{0}, 0, r, 0, false)
	}
	buf.ComputeGAE(0, 0, 0) // advantages = rewards
	buf.NormalizeAdvantages()
	var advs []float64
	for _, s := range buf.Steps() {
		advs = append(advs, s.Advantage)
	}
	if !mathx.AlmostEqual(mathx.Mean(advs), 0, 1e-12) {
		t.Errorf("normalized mean = %v, want 0", mathx.Mean(advs))
	}
	if !mathx.AlmostEqual(mathx.StdDev(advs), 1, 1e-12) {
		t.Errorf("normalized std = %v, want 1", mathx.StdDev(advs))
	}
}

func TestRolloutResetClearsSegments(t *testing.T) {
	buf := NewRollout(1)
	buf.Add([]float64{0}, []float64{0}, 0, 1, 0, false)
	buf.ComputeGAE(1, 1, 0)
	buf.Reset()
	if buf.Len() != 0 {
		t.Fatalf("Len after Reset = %d", buf.Len())
	}
	buf.Add([]float64{0}, []float64{0}, 0, 7, 0, false)
	buf.ComputeGAE(1, 1, 0)
	if got := buf.Steps()[0].Advantage; !mathx.AlmostEqual(got, 7, 1e-12) {
		t.Errorf("advantage after Reset = %v, want 7", got)
	}
}

func TestRolloutGAEValidation(t *testing.T) {
	buf := NewRollout(1)
	buf.Add([]float64{0}, []float64{0}, 0, 1, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("ComputeGAE with gamma > 1 did not panic")
		}
	}()
	buf.ComputeGAE(1.5, 0.5, 0)
}

// banditEnv is a stateless continuous bandit: reward = 1 - (a - target)².
// PPO must move the policy mean toward target.
type banditEnv struct {
	target float64
	k, len int
}

func (b *banditEnv) Reset() []float64 { b.k = 0; return []float64{1} }
func (b *banditEnv) Step(a []float64) ([]float64, float64, bool) {
	b.k++
	d := a[0] - b.target
	return []float64{1}, 1 - d*d, b.k >= b.len
}
func (b *banditEnv) ObsDim() int { return 1 }
func (b *banditEnv) ActDim() int { return 1 }
func (b *banditEnv) ActionBounds() (lo, hi []float64) {
	return []float64{-2}, []float64{2}
}

func TestPPOLearnsBandit(t *testing.T) {
	env := &banditEnv{target: 0.7, len: 50}
	cfg := DefaultPPOConfig()
	cfg.LR = 3e-3
	cfg.Seed = 5
	agent := NewPPO(1, 1, []float64{-2}, []float64{2}, cfg)
	tr := NewTrainer(env, agent, TrainerConfig{Episodes: 60, RoundsPerEpisode: 50, UpdateEvery: 25})
	stats := tr.Run()

	if len(stats) != 60 {
		t.Fatalf("episodes = %d, want 60", len(stats))
	}
	act := meanAction(agent, []float64{1})
	if math.Abs(act[0]-0.7) > 0.25 {
		t.Errorf("learned mean action = %v, want ~0.7", act[0])
	}
	// Learning curve should improve from start to end.
	early := mathx.Mean([]float64{stats[0].Return, stats[1].Return, stats[2].Return})
	late := mathx.Mean([]float64{stats[57].Return, stats[58].Return, stats[59].Return})
	if late <= early {
		t.Errorf("no improvement: early %v, late %v", early, late)
	}
}

func TestPPOActionClampedToBounds(t *testing.T) {
	cfg := DefaultPPOConfig()
	cfg.InitLogStd = 2 // huge exploration to force clamping
	agent := NewPPO(1, 1, []float64{0}, []float64{1}, cfg)
	for i := 0; i < 100; i++ {
		_, env, _, _, _ := agent.SelectActionWithMean([]float64{0.5})
		if env[0] < 0 || env[0] > 1 {
			t.Fatalf("env action %v outside [0,1]", env[0])
		}
	}
}

func TestPPOUpdateEmptyBufferIsNoop(t *testing.T) {
	agent := NewPPO(1, 1, []float64{0}, []float64{1}, DefaultPPOConfig())
	stats := agent.Update(NewRollout(0))
	if stats.Samples != 0 {
		t.Errorf("empty update processed %d samples", stats.Samples)
	}
}

func TestPPOValidation(t *testing.T) {
	cfg := DefaultPPOConfig()
	for _, tc := range []struct {
		name string
		mut  func(*PPOConfig)
	}{
		{"zero epochs", func(c *PPOConfig) { c.Epochs = 0 }},
		{"zero minibatch", func(c *PPOConfig) { c.MiniBatch = 0 }},
		{"clip too big", func(c *PPOConfig) { c.ClipEps = 1 }},
		{"zero lr", func(c *PPOConfig) { c.LR = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			tc.mut(&c)
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			NewPPO(1, 1, []float64{0}, []float64{1}, c)
		})
	}
}

func TestPPOInvertedBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted action bounds did not panic")
		}
	}()
	NewPPO(1, 1, []float64{1}, []float64{0}, DefaultPPOConfig())
}

func TestPPOLogStdFloor(t *testing.T) {
	cfg := DefaultPPOConfig()
	cfg.MinLogStd = -1
	cfg.InitLogStd = -0.5
	agent := NewPPO(1, 1, []float64{0}, []float64{1}, cfg)
	// Force the logstd far below the floor and verify clamping on update.
	agent.net.logStd.Value[0] = -10
	buf := NewRollout(4)
	for i := 0; i < 4; i++ {
		buf.Add([]float64{1}, []float64{0.5}, -1, 1, 0, false)
	}
	buf.ComputeGAE(0.9, 0.9, 0)
	agent.Update(buf)
	if got := agent.net.logStd.Value[0]; got < -1 {
		t.Errorf("logStd = %v, want >= -1 after clamping", got)
	}
}

func TestTrainerEarlyStopCallback(t *testing.T) {
	env := &banditEnv{target: 0, len: 10}
	agent := NewPPO(1, 1, []float64{-2}, []float64{2}, DefaultPPOConfig())
	tr := NewTrainer(env, agent, TrainerConfig{Episodes: 100, RoundsPerEpisode: 10, UpdateEvery: 5})
	count := 0
	tr.OnEpisode = func(EpisodeStats) bool {
		count++
		return count < 3
	}
	stats := tr.Run()
	if len(stats) != 3 {
		t.Errorf("early stop produced %d episodes, want 3", len(stats))
	}
}

func TestTrainerConfigValidation(t *testing.T) {
	env := &banditEnv{target: 0, len: 10}
	agent := NewPPO(1, 1, []float64{-2}, []float64{2}, DefaultPPOConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("invalid TrainerConfig did not panic")
		}
	}()
	NewTrainer(env, agent, TrainerConfig{Episodes: 0, RoundsPerEpisode: 1, UpdateEvery: 1})
}

func TestSelectActionDeterministicSeed(t *testing.T) {
	mk := func() *PPO {
		cfg := DefaultPPOConfig()
		cfg.Seed = 77
		return NewPPO(2, 1, []float64{0}, []float64{1}, cfg)
	}
	a1, a2 := mk(), mk()
	obs := []float64{0.3, 0.7}
	r1, e1, l1, v1, m1 := a1.SelectActionWithMean(obs)
	r2, e2, l2, v2, m2 := a2.SelectActionWithMean(obs)
	if r1[0] != r2[0] || e1[0] != e2[0] || l1 != l2 || v1 != v2 || m1[0] != m2[0] {
		t.Error("same seed must produce identical actions")
	}
}

func TestPPOFullEpochsModeLearns(t *testing.T) {
	env := &banditEnv{target: -0.4, len: 50}
	cfg := DefaultPPOConfig()
	cfg.LR = 3e-3
	cfg.FullEpochs = true
	cfg.Seed = 11
	agent := NewPPO(1, 1, []float64{-2}, []float64{2}, cfg)
	tr := NewTrainer(env, agent, TrainerConfig{Episodes: 60, RoundsPerEpisode: 50, UpdateEvery: 25})
	tr.Run()
	act := meanAction(agent, []float64{1})
	if math.Abs(act[0]-(-0.4)) > 0.3 {
		t.Errorf("full-epoch mode learned %v, want ~-0.4", act[0])
	}
}

func TestDenormalizeMapsBounds(t *testing.T) {
	agent := NewPPO(1, 1, []float64{5}, []float64{50}, DefaultPPOConfig())
	tests := []struct{ raw, want float64 }{
		{-1, 5}, {1, 50}, {0, 27.5}, {-3, 5}, {3, 50},
	}
	dst := make([]float64, 1)
	for _, tt := range tests {
		if got := agent.denormalizeInto(dst, []float64{tt.raw})[0]; got != tt.want {
			t.Errorf("denormalizeInto(%v) = %v, want %v", tt.raw, got, tt.want)
		}
	}
}

func TestMeanActionInsideBounds(t *testing.T) {
	agent := NewPPO(3, 1, []float64{5}, []float64{50}, DefaultPPOConfig())
	for i := 0; i < 20; i++ {
		obs := []float64{float64(i), -float64(i), 0.5}
		_, _, _, _, mean := agent.SelectActionWithMean(obs)
		if a := mean[0]; a < 5 || a > 50 {
			t.Fatalf("mean action %v outside [5, 50]", a)
		}
	}
}

// meanAction returns the deterministic (mean) environment action at obs
// through a one-row MeanActionBatch, which consumes no RNG.
func meanAction(p *PPO, obs []float64) []float64 {
	var dst mat.Matrix
	p.MeanActionBatch(mat.FromSlice(1, len(obs), obs), &dst)
	return dst.Row(0)
}
