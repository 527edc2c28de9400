// Benchmarks: one per figure of the paper's evaluation (the harness that
// regenerates each panel), plus microbenchmarks of the hot paths.
//
// The per-figure benchmarks run reduced-size trainings per iteration so
// that `go test -bench=.` completes quickly; the full-size runs are
// produced by cmd/vtmig-experiments (see EXPERIMENTS.md for the recorded
// outputs).
package vtmig_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vtmig"
	"vtmig/internal/aotm"
	"vtmig/internal/channel"
	"vtmig/internal/experiments"
	"vtmig/internal/mat"
	"vtmig/internal/nn"
	"vtmig/internal/pomdp"
	"vtmig/internal/rl"
	"vtmig/internal/scenario"
	"vtmig/internal/serve"
	"vtmig/internal/sim"
	"vtmig/internal/stackelberg"
)

// benchCfg returns a reduced DRL configuration for benchmark iterations.
func benchCfg() experiments.DRLConfig {
	cfg := experiments.DefaultDRLConfig()
	cfg.Episodes = 5
	cfg.Rounds = 40
	return cfg
}

// BenchmarkFig2aReturnConvergence regenerates Fig. 2(a): per-episode
// return of the DRL incentive mechanism on the two-VMU benchmark.
func BenchmarkFig2aReturnConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunFig2Ctx(context.Background(), stackelberg.DefaultGame(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Return.Len() != cfg.Episodes {
			b.Fatal("missing return curve")
		}
	}
}

// BenchmarkFig2bUtilityConvergence regenerates Fig. 2(b): the MSP's
// utility converging to the Stackelberg equilibrium.
func BenchmarkFig2bUtilityConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunFig2Ctx(context.Background(), stackelberg.DefaultGame(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Utility.Len() != cfg.Episodes || res.OracleUtility <= 0 {
			b.Fatal("missing utility curve")
		}
	}
}

// BenchmarkFig3aCostSweep regenerates Fig. 3(a): MSP utility and price vs
// transmission cost, DRL vs equilibrium vs greedy vs random.
func BenchmarkFig3aCostSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunCostSweepCtx(context.Background(), []float64{5, 7, 9}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Fig3a.Rows) != 3 {
			b.Fatal("missing fig3a rows")
		}
	}
}

// BenchmarkFig3bVMUCostSweep regenerates Fig. 3(b): total VMU utility and
// bandwidth vs transmission cost.
func BenchmarkFig3bVMUCostSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunCostSweepCtx(context.Background(), []float64{5, 7, 9}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Fig3b.Rows) != 3 {
			b.Fatal("missing fig3b rows")
		}
	}
}

// BenchmarkFig3cVMUCountSweep regenerates Fig. 3(c): MSP utility and price
// vs the number of VMUs (capacity-binding regime included).
func BenchmarkFig3cVMUCountSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunVMUSweepCtx(context.Background(), []int{2, 6}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Fig3c.Rows) != 2 {
			b.Fatal("missing fig3c rows")
		}
	}
}

// BenchmarkFig3dAvgVMUSweep regenerates Fig. 3(d): average VMU utility and
// bandwidth vs the number of VMUs.
func BenchmarkFig3dAvgVMUSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunVMUSweepCtx(context.Background(), []int{2, 6}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Fig3d.Rows) != 2 {
			b.Fatal("missing fig3d rows")
		}
	}
}

// BenchmarkAblationHistory regenerates the observation-history ablation.
func BenchmarkAblationHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Seed = int64(i + 1)
		if _, err := experiments.RunHistoryAblationCtx(context.Background(), []int{1, 4}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationReward regenerates the binary-vs-shaped reward
// ablation.
func BenchmarkAblationReward(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Seed = int64(i + 1)
		if _, err := experiments.RunRewardAblationCtx(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFollowerSolvers regenerates the closed-form vs
// iterated-best-response solver comparison.
func BenchmarkFollowerSolvers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.RunSolverAblation(); len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAblationMultiMSP regenerates the monopoly-vs-competition
// ablation (the paper's future-work extension).
func BenchmarkAblationMultiMSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMultiMSPAblation([]int{1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- microbenchmarks of the hot paths ---

// BenchmarkStackelbergSolve measures the constrained equilibrium solver.
func BenchmarkStackelbergSolve(b *testing.B) {
	g := stackelberg.DefaultGame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eq := g.Solve()
		if eq.Price <= 0 {
			b.Fatal("bad solve")
		}
	}
}

// BenchmarkBestResponses measures the follower best-response evaluation
// (the inner loop of every pricing round).
func BenchmarkBestResponses(b *testing.B) {
	g := stackelberg.DefaultGame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := g.BestResponses(25.3); len(d) != 2 {
			b.Fatal("bad demands")
		}
	}
}

// BenchmarkPPOSelectAction measures the one-row act
// (SelectActionWithMean): one policy forward pass as a batch of one plus
// sampling, what a served quote and an online pricer round run.
func BenchmarkPPOSelectAction(b *testing.B) {
	env := newBenchEnv(b)
	lo, hi := env.ActionBounds()
	agent := rl.NewPPO(env.ObsDim(), env.ActDim(), lo, hi, rl.DefaultPPOConfig())
	obs := env.Reset()
	agent.SelectActionWithMean(obs) // grow scratch outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, v, _ := agent.SelectActionWithMean(obs); v != v {
			b.Fatal("NaN value")
		}
	}
}

// BenchmarkPPOUpdate measures one optimization phase over a K=100 buffer.
func BenchmarkPPOUpdate(b *testing.B) {
	env := newBenchEnv(b)
	lo, hi := env.ActionBounds()
	agent := rl.NewPPO(env.ObsDim(), env.ActDim(), lo, hi, rl.DefaultPPOConfig())
	buf := rl.NewRollout(100)
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
	agent.Update(buf) // warm-up: grows minibatch scratch and Adam state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Update(buf)
	}
}

// newBenchVecEnv builds n independently seeded copies of the paper's
// POMDP for collection benchmarks.
func newBenchVecEnv(b *testing.B, n int) *rl.EnvSlice {
	b.Helper()
	vec, err := pomdp.NewVecEnv(pomdp.Config{
		Game:       stackelberg.DefaultGame(),
		HistoryLen: 4,
		Rounds:     100,
		Reward:     pomdp.RewardBinary,
		Seed:       1,
	}, n)
	if err != nil {
		b.Fatal(err)
	}
	return vec
}

// BenchmarkCollect measures Algorithm 1's collection phase in isolation
// (no optimization): 100 rounds of experience per op. serial-loop is the
// classic per-step SelectActionWithMean/Step/Add sequence; the envs=W
// cases run the VecCollector, whose per-round policy evaluation is one
// batched pass over all live envs. Note the per-op work scales with the
// env count (envs=4 collects 400 transitions per op, so compare ns/op ÷
// envs).
func BenchmarkCollect(b *testing.B) {
	b.Run("serial-loop", func(b *testing.B) {
		env := newBenchEnv(b)
		lo, hi := env.ActionBounds()
		agent := rl.NewPPO(env.ObsDim(), env.ActDim(), lo, hi, rl.DefaultPPOConfig())
		buf := rl.NewRollout(100)
		op := func() {
			buf.Reset()
			obs := env.Reset()
			for k := 0; k < 100; k++ {
				raw, envAct, logP, value, _ := agent.SelectActionWithMean(obs)
				next, reward, done := env.Step(envAct)
				buf.Add(obs, raw, logP, reward, value, done || k == 99)
				obs = next
				if done {
					break
				}
			}
			buf.ComputeGAE(0.95, 0.95, 0)
		}
		op() // warm-up grows arenas and scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
	for _, envs := range []int{1, 4} {
		b.Run(fmt.Sprintf("envs=%d", envs), func(b *testing.B) {
			vec := newBenchVecEnv(b, envs)
			lo, hi := vec.ActionBounds()
			agent := rl.NewPPO(vec.ObsDim(), vec.ActDim(), lo, hi, rl.DefaultPPOConfig())
			col := rl.NewVecCollector(vec, agent)
			buf := rl.NewRollout(100 * envs)
			op := func() {
				buf.Reset()
				col.Begin(envs)
				for k := 0; k < 100 && col.Live() > 0; k++ {
					col.Step(k == 99)
				}
				col.Merge(buf)
			}
			op() // warm-up grows staging buffers and matrices
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// BenchmarkTrainerEpisode measures one full episode block of Algorithm 1
// — collection plus the interleaved PPO optimization phases — through the
// Trainer. envs=1 is the paper's serial loop; envs=4 trains four episodes
// per op in lockstep (compare ns/op ÷ envs for per-episode cost).
func BenchmarkTrainerEpisode(b *testing.B) {
	for _, envs := range []int{1, 4} {
		b.Run(fmt.Sprintf("envs=%d", envs), func(b *testing.B) {
			vec := newBenchVecEnv(b, envs)
			lo, hi := vec.ActionBounds()
			agent := rl.NewPPO(vec.ObsDim(), vec.ActDim(), lo, hi, rl.DefaultPPOConfig())
			trainer := rl.NewVecTrainer(vec, agent, rl.TrainerConfig{
				Episodes:         envs, // exactly one lockstep block per Run
				RoundsPerEpisode: 100,
				UpdateEvery:      20,
			})
			trainer.Run() // warm-up
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trainer.Rewind() // each Run measures one full episode block
				trainer.Run()
			}
		})
	}
}

// BenchmarkSnapshot measures a full training snapshot — weights, Adam
// moments, RNG positions, env streams — at the end of a short training
// (the per-call cost of the online pricer's SnapshotEvery hook and of
// TrainResult.Checkpoint).
func BenchmarkSnapshot(b *testing.B) {
	vec := newBenchVecEnv(b, 1)
	lo, hi := vec.ActionBounds()
	agent := rl.NewPPO(vec.ObsDim(), vec.ActDim(), lo, hi, rl.DefaultPPOConfig())
	trainer := rl.NewVecTrainer(vec, agent, rl.TrainerConfig{
		Episodes: 2, RoundsPerEpisode: 40, UpdateEvery: 20,
	})
	trainer.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainer.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResume measures a full restore into a freshly built trainer —
// strict state application plus the O(1) reconstruction of the counted
// RNG streams from their captured generator state.
func BenchmarkResume(b *testing.B) {
	vec := newBenchVecEnv(b, 1)
	lo, hi := vec.ActionBounds()
	agent := rl.NewPPO(vec.ObsDim(), vec.ActDim(), lo, hi, rl.DefaultPPOConfig())
	tcfg := rl.TrainerConfig{Episodes: 2, RoundsPerEpisode: 40, UpdateEvery: 20}
	rl.NewVecTrainer(vec, agent, tcfg).Run()
	ck, err := agent.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	target := rl.NewPPO(vec.ObsDim(), vec.ActDim(), lo, hi, rl.DefaultPPOConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := target.Restore(ck); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointBinary measures encoding and decoding a full
// training checkpoint (weights, optimizer, RNG state, meta), reporting
// the encoded size.
func BenchmarkCheckpointBinary(b *testing.B) {
	vec := newBenchVecEnv(b, 1)
	lo, hi := vec.ActionBounds()
	agent := rl.NewPPO(vec.ObsDim(), vec.ActDim(), lo, hi, rl.DefaultPPOConfig())
	rl.NewVecTrainer(vec, agent, rl.TrainerConfig{
		Episodes: 2, RoundsPerEpisode: 40, UpdateEvery: 20,
	}).Run()
	ck, err := agent.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ck.SaveBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(data)), "bytes")
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := ck.SaveBinary(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	// append is the serving path: encoding into a buffer reused across
	// rotations.
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var enc []byte
		for i := 0; i < b.N; i++ {
			var err error
			if enc, err = ck.AppendBinary(enc[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := nn.LoadCheckpoint(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvaluate measures one equilibrium report for a posted price —
// the per-round cost inside every POMDP Step. The scratch variant is the
// hot path (0 allocs/op in steady state); the alloc variant is the
// legacy convenience entry point.
func BenchmarkEvaluate(b *testing.B) {
	g := stackelberg.DefaultGame()
	b.Run("scratch", func(b *testing.B) {
		var s stackelberg.EvalScratch
		g.EvaluateInto(&s, 25.3) // warm-up grows the scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if eq := g.EvaluateInto(&s, 25.3); eq.MSPUtility <= 0 {
				b.Fatal("bad evaluation")
			}
		}
	})
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if eq := g.Evaluate(25.3); eq.MSPUtility <= 0 {
				b.Fatal("bad evaluation")
			}
		}
	})
}

// BenchmarkSolveScratch measures the scratch-backed constrained
// equilibrium solver (0 allocs/op in steady state).
func BenchmarkSolveScratch(b *testing.B) {
	g := stackelberg.DefaultGame()
	var s stackelberg.EvalScratch
	g.SolveInto(&s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eq := g.SolveInto(&s); eq.Price <= 0 {
			b.Fatal("bad solve")
		}
	}
}

// BenchmarkSolveScratchFleet measures the scratch-backed solver on a
// fleet-scale round: 5,800 followers shaped like a metro-10k pricing round
// (α in [5, 20], 100–300 MB twins, 400 m RSU spacing), unconstrained
// (BMax 0, what the simulator passes once its pool is exhausted) and
// under admission control (BMax 0.5). 0 allocs/op in steady state.
func BenchmarkSolveScratchFleet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vmus := make([]stackelberg.VMU, 5800)
	for i := range vmus {
		vmus[i] = stackelberg.VMU{ID: i, Alpha: 5 + rng.Float64()*15, DataSize: aotm.FromMB(100 + rng.Float64()*200)}
	}
	ch := channel.DefaultParams()
	ch.DistanceM = 400
	for _, bmax := range []float64{0, 0.5} {
		b.Run(fmt.Sprintf("bmax=%g", bmax), func(b *testing.B) {
			g := &stackelberg.Game{VMUs: vmus, Channel: ch, Cost: 5, PMax: 50, BMax: bmax}
			var s stackelberg.EvalScratch
			g.SolveInto(&s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if eq := g.SolveInto(&s); eq.Price <= 0 {
					b.Fatal("bad solve")
				}
			}
		})
	}
}

// benchActorCritic builds the paper's actor-critic: 12 observation
// inputs, two hidden layers of 64 tanh units, one action.
func benchActorCritic() *rl.ActorCritic {
	return rl.NewActorCritic(12, 1, []int{64, 64}, nn.ActTanh, -0.5, rand.New(rand.NewSource(1)))
}

// BenchmarkActorCriticForward measures the forward pass on one row, a
// batch of one: what a served quote, an online or frozen pricer readout
// and a one-env collection step run.
func BenchmarkActorCriticForward(b *testing.B) {
	ac := benchActorCritic()
	x := mat.New(1, 12)
	ac.ForwardBatch(x) // grow scratch outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mean, _, _ := ac.ForwardBatch(x); mean.Rows != 1 {
			b.Fatal("bad forward")
		}
	}
}

// BenchmarkActorCriticForwardBatch measures the batched forward pass on a
// PPO-minibatch-sized input (20 rows).
func BenchmarkActorCriticForwardBatch(b *testing.B) {
	ac := benchActorCritic()
	x := mat.New(20, 12)
	x.Randomize(rand.New(rand.NewSource(2)), 1)
	ac.ForwardBatch(x) // grow scratch outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mean, _, _ := ac.ForwardBatch(x); mean.Rows != 20 {
			b.Fatal("bad batch forward")
		}
	}
}

// BenchmarkActorCriticBackwardBatch measures a full batched forward and
// backward pass over 20 rows, the per-minibatch cost of one PPO gradient
// accumulation.
func BenchmarkActorCriticBackwardBatch(b *testing.B) {
	ac := benchActorCritic()
	x := mat.New(20, 12)
	x.Randomize(rand.New(rand.NewSource(2)), 1)
	dMean, dLogStd := mat.New(20, 1), mat.New(20, 1)
	dMean.Fill(1)
	dLogStd.Fill(0.1)
	dValue := make([]float64, 20)
	for i := range dValue {
		dValue[i] = 1
	}
	ac.ForwardBatch(x)
	ac.BackwardBatch(dMean, dLogStd, dValue)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ac.ForwardBatch(x)
		ac.BackwardBatch(dMean, dLogStd, dValue)
	}
}

// --- microbenchmarks of the mat kernel layer (PPO-minibatch shapes) ---

// benchKernelMats builds the operand shapes of the paper network's widest
// layer under a minibatch of 20: X 20×64, W 64×64, dY 20×64.
func benchKernelMats() (x, w, dy *mat.Matrix) {
	rng := rand.New(rand.NewSource(2))
	x = mat.New(20, 64)
	x.Randomize(rng, 1)
	w = mat.New(64, 64)
	w.Randomize(rng, 1)
	dy = mat.New(20, 64)
	dy.Randomize(rng, 1)
	return x, w, dy
}

// BenchmarkMatMulABTTo measures the forward kernel Y = X·Wᵀ + b
// (mat.MulABTBiasTo) at the 64×64 layer in both shapes the network runs:
// one row (a served quote, a collection step, a replica readout) and a
// minibatch of 20.
func BenchmarkMatMulABTTo(b *testing.B) {
	x, w, _ := benchKernelMats()
	bias := make([]float64, w.Rows)
	for i := range bias {
		bias[i] = float64(i) / 64
	}
	for _, rows := range []int{1, 20} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			xr := mat.FromSlice(rows, x.Cols, x.Data[:rows*x.Cols])
			dst := mat.New(rows, w.Rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mat.MulABTBiasTo(dst, xr, w, bias)
			}
		})
	}
}

// BenchmarkMatMulTo measures the batched input-gradient kernel dX = dY·W.
func BenchmarkMatMulTo(b *testing.B) {
	_, w, dy := benchKernelMats()
	dst := mat.New(20, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MulTo(dst, dy, w)
	}
}

// BenchmarkMatMulATBAddTo measures the batched weight-gradient kernel
// dW += dYᵀ·X.
func BenchmarkMatMulATBAddTo(b *testing.B) {
	x, _, dy := benchKernelMats()
	dst := mat.New(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MulATBAddTo(dst, dy, x)
	}
}

// BenchmarkAdamStep measures one Adam step over the paper network's
// parameters (the PPO actor-critic for the two-VMU game: 12 inputs, two
// 64-unit tanh layers, mean and value heads, log-std), the optimizer half
// of every PPO minibatch.
func BenchmarkAdamStep(b *testing.B) {
	env := newBenchEnv(b)
	lo, hi := env.ActionBounds()
	cfg := rl.DefaultPPOConfig()
	params := rl.NewPPO(env.ObsDim(), env.ActDim(), lo, hi, cfg).Params()
	rng := rand.New(rand.NewSource(3))
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = rng.NormFloat64()
		}
	}
	opt := nn.NewAdam(cfg.LR)
	opt.Step(params) // warm-up: allocates the moment estimates
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(params)
	}
}

// BenchmarkTanhTo measures TanhTo over one minibatch of hidden
// activations, 40 rows of a 64-unit tanh layer (2,560 elements), with
// inputs that reach every branch of math.Tanh: the rational function
// below 0.625, the exponential above it, ±1 past 0.5·MAXLOG, and ±0.
func BenchmarkTanhTo(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	src := make([]float64, 40*64)
	for i := range src {
		switch i % 16 {
		case 5:
			src[i] = math.Copysign(60, rng.NormFloat64())
		case 11:
			src[i] = 0
		default:
			src[i] = 1.5 * rng.NormFloat64()
		}
	}
	dst := make([]float64, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.TanhTo(dst, src)
	}
}

// BenchmarkStreamCollect measures the online-learning collection path in
// isolation: one externally produced transition staged into the
// StreamCollector per op, including the amortized cost of the PPO
// optimization phase that fires every 20 transitions (the paper's |I|).
// Steady state is allocation-free like the rest of the training hot path.
func BenchmarkStreamCollect(b *testing.B) {
	env := newBenchEnv(b)
	lo, hi := env.ActionBounds()
	agent := rl.NewPPO(env.ObsDim(), env.ActDim(), lo, hi, rl.DefaultPPOConfig())
	col := rl.NewStreamCollector(agent, 20)
	obs := env.Reset()
	step := func() {
		raw, envAct, logP, value, _ := agent.SelectActionWithMean(obs)
		next, reward, done := env.Step(envAct)
		col.Add(obs, raw, logP, reward, value, done, next)
		obs = next
		if done {
			obs = env.Reset()
		}
	}
	for i := 0; i < 40; i++ {
		step() // warm-up: grows arenas, minibatch scratch, Adam state
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkSimRoundOnline measures the online pricer's per-round cost
// inside the simulator's pricing loop: one PriceFor on the benchmark game
// — policy forward, per-round oracle solve and equilibrium evaluation,
// observation-window update, staging, and the amortized optimization
// phase every 20 rounds.
func BenchmarkSimRoundOnline(b *testing.B) {
	game := stackelberg.DefaultGame()
	pricer, err := sim.NewOnlinePricer(sim.OnlinePricerConfig{Game: game})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		pricer.PriceFor(game) // warm-up
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := pricer.PriceFor(game); p < game.Cost || p > game.PMax {
			b.Fatalf("price %g out of bounds", p)
		}
	}
}

// BenchmarkSimulationOnline measures a 60-second end-to-end simulator
// slice priced by a cold-started online learner (cf. BenchmarkSimulation
// for the oracle-priced reference).
func BenchmarkSimulationOnline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pricer, err := sim.NewOnlinePricer(sim.OnlinePricerConfig{
			Game: stackelberg.DefaultGame(),
			Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.DefaultConfig()
		cfg.DurationS = 60
		cfg.Seed = int64(i + 1)
		cfg.Pricer = pricer
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.Run()
	}
}

// BenchmarkSimulation measures a 60-second end-to-end simulator slice.
func BenchmarkSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.DurationS = 60
		cfg.Seed = int64(i + 1)
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.Run()
	}
}

// benchScenarioJSON is a mid-size scenario exercising every workload
// dimension of the declarative layer: grid mobility, vehicle classes,
// churn, explicit + generated outages, and a demand cycle.
const benchScenarioJSON = `{
  "name": "bench",
  "seed": 7,
  "duration_s": 60,
  "mobility": {"kind": "grid", "rows": 3, "cols": 4, "spacing_m": 400, "radius_m": 300},
  "classes": [
    {"name": "sedan", "weight": 3},
    {"name": "truck", "weight": 1, "speed_min_mps": 8, "speed_max_mps": 12}
  ],
  "churn": {"arrival_rate_per_s": 0.05, "mean_dwell_s": 120, "max_vehicles": 12},
  "outages": [{"rsu": 2, "start_s": 10, "end_s": 25}],
  "outage_gen": {"count": 2, "mean_duration_s": 20},
  "demand": {"period_s": 30, "day_fraction": 0.6, "night_speed_factor": 0.5, "night_sensing_factor": 2},
  "pricer": {"name": "oracle"}
}`

// BenchmarkScenarioLoad measures the declarative layer's full load path
// on the mid-size scenario: strict JSON decode, validation, and the
// deterministic compile with generator expansion.
func BenchmarkScenarioLoad(b *testing.B) {
	data := []byte(benchScenarioJSON)
	for i := 0; i < b.N; i++ {
		s, err := scenario.Parse(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.CompileConfig(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioSim measures a 60-second end-to-end slice of the
// mid-size scenario — the non-stationary counterpart of
// BenchmarkSimulation (grid handovers, churn spawns/despawns, outage
// re-homing, and demand modulation on top of the base simulator loop).
func BenchmarkScenarioSim(b *testing.B) {
	s, err := scenario.Parse([]byte(benchScenarioJSON))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sc := *s
		sc.Seed = int64(i + 1)
		cfg, err := sc.Compile(sim.PricerBuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sm, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sm.Run()
	}
}

// BenchmarkSimFleet measures the steady-state per-tick cost of the
// committed metro-scale scenario at two fleet sizes. Migration records
// are discarded by the scenario, so allocs/op reports the
// streaming-aggregation steady state, which must stay flat in fleet size.
func BenchmarkSimFleet(b *testing.B) {
	base, err := scenario.Load("testdata/scenarios/metro-10k.json")
	if err != nil {
		b.Fatal(err)
	}
	for _, fleet := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("fleet=%d", fleet), func(b *testing.B) {
			sc := *base
			sc.Vehicles = fleet
			// Churn off: the timed window steps b.N simulated seconds
			// past warm-up, and with arrivals enabled the population
			// (and so the per-tick cost) would drift with b.N, making
			// recordings incomparable across -benchtime values. Fixing
			// the fleet pins the regime the row claims to measure.
			sc.Churn = nil
			cfg, err := sc.CompileConfig()
			if err != nil {
				b.Fatal(err)
			}
			pricer, err := sim.NewPricerFromSpec(
				sim.PricerSpec{Name: "random"},
				sim.PricerBuildOptions{DefaultSeed: sc.Seed},
			)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Pricer = pricer
			sm, err := sim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Warm-up into steady state: the attach storm, the scratch
			// growth of the ever-larger early pricing rounds, and the
			// sensing-history ramp (compaction starts at 8 breakpoints,
			// ~18 simulated seconds in) all settle before the timed
			// ticks.
			sm.RunFor(200)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sm.Step()
			}
		})
	}
}

// BenchmarkSimNew measures a metro-10k run's set-up: loading and
// compiling the committed scenario and building its 10,000-vehicle
// simulator (sim.New spawns and places the whole initial fleet). Its
// bytes/op is the set-up memory that TestMetroRunBytesBounded gates.
func BenchmarkSimNew(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		sc, err := scenario.Load("testdata/scenarios/metro-10k.json")
		if err != nil {
			b.Fatal(err)
		}
		cfg, err := sc.Compile(sim.PricerBuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeSolve measures the public-API entry point.
func BenchmarkFacadeSolve(b *testing.B) {
	g := vtmig.DefaultGame()
	for i := 0; i < b.N; i++ {
		if eq := g.Solve(); eq.MSPUtility <= 0 {
			b.Fatal("bad solve")
		}
	}
}

// newBenchEnv builds the paper's POMDP for benchmarks.
func newBenchEnv(b *testing.B) *pomdp.GameEnv {
	b.Helper()
	env, err := pomdp.NewGameEnv(pomdp.Config{
		Game:       stackelberg.DefaultGame(),
		HistoryLen: 4,
		Rounds:     100,
		Reward:     pomdp.RewardBinary,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkServeQuote measures the serving path end to end inside the
// process: request validation, the write-ahead journal append, the
// intake-goroutine handoff, and the pricing round itself — with the
// periodic PPO optimization phases and checkpoint rotations amortized in,
// exactly as a live vtmig-serve daemon pays them.
func BenchmarkServeQuote(b *testing.B) {
	s, err := serve.Open(serve.Config{
		Dir:         b.TempDir(),
		UpdateEvery: 20,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	req := serve.QuoteRequest{
		VMUs: []serve.QuoteVMU{
			{ID: 0, Alpha: 5, DataMB: 200},
			{ID: 1, Alpha: 5, DataMB: 100},
		},
		DistanceM: 500,
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Quote(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeQuoteBatched measures the same serving path under
// concurrent clients, so the intake loop actually coalesces batches:
// the journal is flushed once per batch and the per-request prework and
// the learning core stay serial — contract
// rule 8 makes the batch size a pure throughput knob, so this benchmark
// prices exactly the same work as BenchmarkServeQuote, just cut
// differently.
func BenchmarkServeQuoteBatched(b *testing.B) {
	s, err := serve.Open(serve.Config{
		Dir:         b.TempDir(),
		UpdateEvery: 20,
		Seed:        1,
		BatchMax:    16,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	req := serve.QuoteRequest{
		VMUs: []serve.QuoteVMU{
			{ID: 0, Alpha: 5, DataMB: 200},
			{ID: 1, Alpha: 5, DataMB: 100},
		},
		DistanceM: 500,
	}
	ctx := context.Background()
	b.SetParallelism(4) // 4×GOMAXPROCS clients keep the intake queue non-empty
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Quote(ctx, req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
