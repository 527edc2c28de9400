package rl

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"vtmig/internal/mat"
	"vtmig/internal/mathx"
	"vtmig/internal/nn"
)

// PPOConfig collects the hyper-parameters of the PPO learner. The defaults
// returned by DefaultPPOConfig match Section V of the paper where the paper
// specifies a value, and standard PPO practice elsewhere.
type PPOConfig struct {
	// Gamma is the reward discount factor γ ∈ [0, 1].
	Gamma float64
	// Lambda is the GAE smoothing factor λ ∈ [0, 1].
	Lambda float64
	// ClipEps is the PPO clipping radius ε of Eq. (19).
	ClipEps float64
	// ValueCoef is the value-loss coefficient c of Eq. (14).
	ValueCoef float64
	// EntropyCoef weights an optional entropy bonus (0 disables; the paper
	// does not use one).
	EntropyCoef float64
	// LR is the Adam learning rate (the paper uses 1e-5; our default is
	// larger because we normalize advantages).
	LR float64
	// MaxGradNorm bounds the global gradient norm per minibatch
	// (<= 0 disables clipping).
	MaxGradNorm float64
	// Epochs is M, the number of update epochs per optimization phase.
	Epochs int
	// MiniBatch is |I|, the minibatch size.
	MiniBatch int
	// NormalizeAdv enables advantage normalization per update phase.
	NormalizeAdv bool
	// FullEpochs switches from the paper's Algorithm 1 (each of the M
	// iterations samples one random minibatch of size |I| from the buffer)
	// to standard PPO (each of the M epochs sweeps the whole buffer in
	// shuffled minibatches).
	FullEpochs bool
	// Hidden lists hidden-layer widths (the paper: two layers of 64).
	Hidden []int
	// Activation is the hidden nonlinearity.
	Activation nn.Activation
	// InitLogStd seeds the Gaussian exploration log-scale.
	InitLogStd float64
	// MinLogStd floors the log-scale so exploration never collapses to
	// exactly zero during training.
	MinLogStd float64
	// Seed drives weight initialization and action sampling.
	Seed int64
}

// DefaultPPOConfig returns the configuration used throughout the
// reproduction.
func DefaultPPOConfig() PPOConfig {
	return PPOConfig{
		Gamma:        0.95,
		Lambda:       0.95,
		ClipEps:      0.2,
		ValueCoef:    0.5,
		EntropyCoef:  0.0,
		LR:           3e-4,
		MaxGradNorm:  0.5,
		Epochs:       10,
		MiniBatch:    20,
		NormalizeAdv: true,
		Hidden:       []int{64, 64},
		Activation:   nn.ActTanh,
		InitLogStd:   -0.5,
		MinLogStd:    -4,
		Seed:         1,
	}
}

// Fingerprint pins the learner hyper-parameters that determine the
// training stream bit for bit, normalizing the seed (checkpoints carry
// the seed separately in their RNG states). PPO.Snapshot embeds it in the
// checkpoint metadata and every full Restore checks it, so a checkpoint
// cannot silently continue under different hyper-parameters (e.g.
// another learning rate applied to restored Adam moments).
func (c PPOConfig) Fingerprint() string {
	c.Seed = 0
	// Until sharded updates were deleted, PPOConfig carried a Shards
	// throughput knob just before Seed, always zeroed here. Every
	// checkpoint written then embeds " Shards:0 Seed:0}", so splice it
	// back in: Seed is the last field and zeroed, so the printed config
	// always ends in " Seed:0}", and those checkpoints keep restoring.
	fp := fmt.Sprintf("ppo-v1|%+v", c)
	return strings.TrimSuffix(fp, " Seed:0}") + " Shards:0 Seed:0}"
}

// LRFromFingerprint extracts the Adam learning rate recorded in a
// PPOConfig fingerprint (Checkpoint.Meta.PPO), so tooling can rebuild a
// matching learner from a full checkpoint without the user repeating the
// training flags. It returns false when the string carries no parseable
// LR token (e.g. a foreign fingerprint).
func LRFromFingerprint(fp string) (float64, bool) {
	const key = " LR:"
	i := strings.Index(fp, key)
	if i < 0 {
		return 0, false
	}
	rest := fp[i+len(key):]
	if j := strings.IndexAny(rest, " }"); j >= 0 {
		rest = rest[:j]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil || !(v > 0) {
		return 0, false
	}
	return v, true
}

// validate panics on nonsensical settings; every violation is a
// programming error in the caller.
func (c PPOConfig) validate() {
	if c.Epochs <= 0 || c.MiniBatch <= 0 {
		panic(fmt.Sprintf("rl: PPO Epochs=%d MiniBatch=%d must be positive", c.Epochs, c.MiniBatch))
	}
	if c.ClipEps <= 0 || c.ClipEps >= 1 {
		panic(fmt.Sprintf("rl: PPO ClipEps=%g must be in (0,1)", c.ClipEps))
	}
	if c.LR <= 0 {
		panic(fmt.Sprintf("rl: PPO LR=%g must be positive", c.LR))
	}
}

// PPO is the proximal-policy-optimization learner of Section IV. It owns
// the actor–critic network, the optimizer, and the action-sampling RNG.
//
// The policy operates in a normalized action space: the Gaussian lives in
// [-1, 1] per dimension (so a zero-initialized mean starts at the center
// of the environment's action interval and the exploration scale is
// interval-relative), and actions are affinely mapped to [lo, hi] before
// being handed to the environment. Rollout buffers store the raw
// normalized samples.
type PPO struct {
	cfg PPOConfig
	net *ActorCritic
	opt *nn.Adam
	// rng draws exclusively from src, a counting source, so the whole
	// policy RNG stream — weight initialization, action sampling,
	// minibatch shuffles — is checkpointable as a (seed, calls) pair.
	rng *rand.Rand
	src *mathx.CountingSource
	// rngSeed is the seed src started from: cfg.Seed at construction,
	// the checkpointed seed after a Restore.
	rngSeed int64

	actLo, actHi []float64

	// scratch reused across calls; the steady-state training loop is
	// allocation-free.
	//
	// row is the one-row view a one-row act passes to the network's
	// ForwardBatch. It lives here because a view built per call would
	// escape through the trunk's nn.Module calls and allocate each time.
	row        mat.Matrix
	rawBuf     []float64
	envBuf     []float64
	meanEnvBuf []float64
	idx        []int
	obsB       mat.Matrix // minibatch×obsDim gather buffer
	dMeanB     mat.Matrix // minibatch×actDim
	dLogStdB   mat.Matrix
	dValueB    []float64
}

// NewPPO builds a PPO learner for an environment with the given
// observation/action dimensions and action bounds.
func NewPPO(obsDim, actDim int, actLo, actHi []float64, cfg PPOConfig) *PPO {
	cfg.validate()
	if len(actLo) != actDim || len(actHi) != actDim {
		panic(fmt.Sprintf("rl: action bounds length %d/%d, want %d", len(actLo), len(actHi), actDim))
	}
	for i := range actLo {
		if actLo[i] >= actHi[i] {
			panic(fmt.Sprintf("rl: action bound %d inverted: [%g, %g]", i, actLo[i], actHi[i]))
		}
	}
	src := mathx.NewCountingSource(cfg.Seed)
	rng := rand.New(src)
	return &PPO{
		cfg:     cfg,
		net:     NewActorCritic(obsDim, actDim, cfg.Hidden, cfg.Activation, cfg.InitLogStd, rng),
		opt:     nn.NewAdam(cfg.LR),
		rng:     rng,
		src:     src,
		rngSeed: cfg.Seed,
		actLo:   append([]float64(nil), actLo...),
		actHi:   append([]float64(nil), actHi...),
		rawBuf:  make([]float64, actDim),
		envBuf:  make([]float64, actDim),

		meanEnvBuf: make([]float64, actDim),
	}
}

// Config returns the learner's configuration.
func (p *PPO) Config() PPOConfig { return p.cfg }

// ObsDim returns the observation dimension the network was built for.
func (p *PPO) ObsDim() int { return p.net.ObsDim() }

// ActDim returns the action dimension the network was built for.
func (p *PPO) ActDim() int { return p.net.ActDim() }

// Params exposes the network parameters (for checkpointing).
func (p *PPO) Params() []*nn.Param { return p.net.Params() }

// Snapshot captures the learner's complete training state as a versioned
// checkpoint: parameter values, the per-parameter Adam moments and step
// count, and the policy RNG stream position. A learner restored from it
// continues training bit-identically to one that never stopped
// (determinism contract rule 6). Trainer.Snapshot adds the environment
// streams and training metadata on top.
func (p *PPO) Snapshot() (*nn.Checkpoint, error) {
	ck, err := nn.Snapshot(p.net.Params())
	if err != nil {
		return nil, err
	}
	if ck.Opt, err = p.opt.StateSnapshot(p.net.Params()); err != nil {
		return nil, err
	}
	ck.RNG = &nn.RNGState{Seed: p.rngSeed, Calls: p.src.Calls(), State: p.src.StateSnapshot()}
	ck.Meta = &nn.TrainMeta{PPO: p.cfg.Fingerprint()}
	return ck, nil
}

// Restore replaces the learner's full training state with a checkpointed
// one. The checkpoint must validate (nn.Checkpoint.Validate) and match
// the network's architecture exactly — unknown, missing, or mis-sized
// entries are rejected before anything is applied. The RNG stream
// continues the snapshotted stream exactly: from its captured generator
// state in constant time, or, for a stream younger than mathx.StateLen
// draws, by replaying the (seed, calls) pair.
func (p *PPO) Restore(ck *nn.Checkpoint) error {
	if ck == nil {
		return fmt.Errorf("rl: nil checkpoint")
	}
	if err := ck.Validate(); err != nil {
		return err
	}
	if ck.Meta.PPO != "" && ck.Meta.PPO != p.cfg.Fingerprint() {
		return fmt.Errorf("rl: checkpoint was trained under different learner hyper-parameters\n  checkpoint: %s\n  learner:    %s", ck.Meta.PPO, p.cfg.Fingerprint())
	}
	// Validate the optimizer section against the live parameters before
	// touching them, so a failed restore leaves the learner unchanged.
	if err := p.opt.RestoreState(p.net.Params(), ck.Opt); err != nil {
		return err
	}
	if err := ck.Restore(p.net.Params()); err != nil {
		return err
	}
	src, err := mathx.NewCountingSourceFromState(ck.RNG.Seed, ck.RNG.Calls, ck.RNG.State)
	if err != nil {
		return fmt.Errorf("rl: restoring policy RNG: %w", err)
	}
	p.rngSeed = ck.RNG.Seed
	p.src = src
	p.rng = rand.New(p.src)
	return nil
}

// RestoreWeights applies only the checkpoint's parameter values, keeping
// the learner's own optimizer state and RNG stream — what a frozen
// readout needs (sim.NewFrozenPricerFromCheckpoint). Training on from it
// is NOT bit-identical to continued training; Restore is.
func (p *PPO) RestoreWeights(ck *nn.Checkpoint) error {
	if ck == nil {
		return fmt.Errorf("rl: nil checkpoint")
	}
	return ck.Restore(p.net.Params())
}

// Clone returns an independent learner in exactly the receiver's training
// state — same weights, optimizer moments, and RNG stream position — via
// an in-memory Snapshot/Restore round trip. The clone shares nothing
// mutable with the receiver, so e.g. a frozen deployment and a continuing
// learner can fork from one trained agent.
func (p *PPO) Clone() (*PPO, error) {
	ck, err := p.Snapshot()
	if err != nil {
		return nil, err
	}
	q := NewPPO(p.net.ObsDim(), p.net.ActDim(), p.actLo, p.actHi, p.cfg)
	if err := q.Restore(ck); err != nil {
		return nil, err
	}
	return q, nil
}

// denormalizeInto maps a raw normalized action (clamped to [-1, 1]) onto
// the environment's action interval, writing it into dst and returning
// dst.
func (p *PPO) denormalizeInto(dst, raw []float64) []float64 {
	for i := range raw {
		z := mathx.Clamp(raw[i], -1, 1)
		dst[i] = p.actLo[i] + (z+1)/2*(p.actHi[i]-p.actLo[i])
	}
	return dst
}

// forwardRow runs the network on one observation as a one-row batch. The
// returned slices alias network-owned buffers overwritten by the next
// forward pass.
func (p *PPO) forwardRow(obs []float64) (mean, logStd []float64, value float64) {
	p.row.Rows, p.row.Cols, p.row.Data = 1, len(obs), obs
	means, logStd, values := p.net.ForwardBatch(&p.row)
	return means.Data, logStd, values[0]
}

// SelectActionWithMean acts on one observation with one forward pass. It
// samples an action from the current policy and returns the raw
// normalized Gaussian sample (stored in the rollout; its log-prob is
// logP), the environment action (the denormalized, bounds-respecting
// form), the value estimate V(obs), and the deterministic (mean)
// environment action. Deployment readouts post the mean while driving
// their belief state and learning with the sample (the simulator's
// online and DRL pricers); evaluation averages the mean. Its bits and RNG
// draws are those of a one-row SelectActionBatch. All returned slices
// alias learner-owned scratch overwritten by the next call; callers that
// retain them must copy (Rollout.Add already does).
func (p *PPO) SelectActionWithMean(obs []float64) (raw, env []float64, logP, value float64, meanEnv []float64) {
	mean, logStd, v := p.forwardRow(obs)
	p.denormalizeInto(p.meanEnvBuf, mean)
	gaussianSample(p.rng, mean, logStd, p.rawBuf)
	logP = gaussianLogProb(p.rawBuf, mean, logStd)
	return p.rawBuf, p.denormalizeInto(p.envBuf, p.rawBuf), logP, v, p.meanEnvBuf
}

// SelectActionBatch samples one stochastic action per observation row in
// a single forward pass — the collection step over every live env. Row r
// of raw/envAct and element r of logP/values are bit-identical to
// SelectActionWithMean calls on the rows in ascending order: the network's
// rows do not depend on the batch size (contract rule 1), and the sampler
// consumes the learner's RNG strictly row-ascending, so the stream
// matches the per-row call sequence exactly (contract rule 4).
//
// raw and envAct are resized to obs.Rows×ActDim; logP and values must
// have length obs.Rows.
func (p *PPO) SelectActionBatch(obs, raw, envAct *mat.Matrix, logP, values []float64) {
	rows := obs.Rows
	if len(logP) != rows || len(values) != rows {
		panic(fmt.Sprintf("rl: SelectActionBatch logP/values lengths %d/%d, want %d",
			len(logP), len(values), rows))
	}
	actDim := p.net.ActDim()
	raw.Resize(rows, actDim)
	envAct.Resize(rows, actDim)
	means, logStd, vals := p.net.ForwardBatch(obs)
	copy(values, vals)
	for r := 0; r < rows; r++ {
		rawR := raw.Row(r)
		gaussianSample(p.rng, means.Row(r), logStd, rawR)
		logP[r] = gaussianLogProb(rawR, means.Row(r), logStd)
		p.denormalizeInto(envAct.Row(r), rawR)
	}
}

// MeanActionBatch evaluates the deterministic (mean) policy readout for
// every observation row in one forward pass, writing the denormalized
// environment actions into the rows of dst (resized to obs.Rows×ActDim).
// Row r equals the meanEnv SelectActionWithMean returns at obs.Row(r),
// but MeanActionBatch consumes NO RNG, so interleaving frozen evaluation
// — e.g. a read replica's readout of a rotated checkpoint — with live
// training leaves the training stream bit-identical.
func (p *PPO) MeanActionBatch(obs, dst *mat.Matrix) {
	dst.Resize(obs.Rows, p.net.ActDim())
	means, _, _ := p.net.ForwardBatch(obs)
	for r := 0; r < obs.Rows; r++ {
		p.denormalizeInto(dst.Row(r), means.Row(r))
	}
}

// Values evaluates the critic V(s) for every observation row in one
// forward pass and stores the results in dst (length obs.Rows), returning
// dst — the critic bootstraps of a vectorized collector's merge.
func (p *PPO) Values(obs *mat.Matrix, dst []float64) []float64 {
	if len(dst) != obs.Rows {
		panic(fmt.Sprintf("rl: Values dst length %d, want %d", len(dst), obs.Rows))
	}
	_, _, vals := p.net.ForwardBatch(obs)
	copy(dst, vals)
	return dst
}

// Value returns the critic's estimate V(obs) for one observation, with
// the bits of the matching Values row.
func (p *PPO) Value(obs []float64) float64 {
	_, _, v := p.forwardRow(obs)
	return v
}

// UpdateStats summarizes one Update call.
type UpdateStats struct {
	// PolicyLoss is the mean negative clipped surrogate over all
	// minibatch samples (lower is better for the optimizer).
	PolicyLoss float64
	// ValueLoss is the mean squared TD error against V^targ.
	ValueLoss float64
	// Entropy is the mean policy entropy.
	Entropy float64
	// ClipFraction is the fraction of samples whose ratio was clipped.
	ClipFraction float64
	// Samples is the number of gradient samples processed.
	Samples int
}

// Update runs the paper's optimization phase (Eq. 14): M epochs of
// minibatch stochastic gradient ascent on
// L^CLIP − c·L^VF (+ β·entropy), sampling minibatches from the rollout
// buffer. Advantages must already be computed via ComputeGAE.
func (p *PPO) Update(buf *Rollout) UpdateStats {
	steps := buf.Steps()
	n := len(steps)
	if n == 0 {
		return UpdateStats{}
	}
	if p.cfg.NormalizeAdv {
		buf.NormalizeAdvantages()
	}

	var stats UpdateStats
	if cap(p.idx) < n {
		p.idx = make([]int, n)
	}
	idx := p.idx[:n]
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < p.cfg.Epochs; epoch++ {
		p.rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		if p.cfg.FullEpochs {
			for start := 0; start < n; start += p.cfg.MiniBatch {
				end := start + p.cfg.MiniBatch
				if end > n {
					end = n
				}
				p.updateMiniBatch(steps, idx[start:end], &stats)
			}
			continue
		}
		// Algorithm 1, lines 11–13: one random minibatch of size |I|
		// sampled from BF per iteration m.
		size := p.cfg.MiniBatch
		if size > n {
			size = n
		}
		p.updateMiniBatch(steps, idx[:size], &stats)
	}
	if stats.Samples > 0 {
		inv := 1 / float64(stats.Samples)
		stats.PolicyLoss *= inv
		stats.ValueLoss *= inv
		stats.Entropy *= inv
		stats.ClipFraction *= inv
	}
	return stats
}

// updateMiniBatch accumulates gradients of the PPO loss over one minibatch
// and applies a single Adam step. The whole minibatch runs through the
// network as one forward/backward pass — the policy is evaluated for
// every selected rollout step at once, and no other forward pass runs
// between the two — with gradient accumulation ordered row-ascending, so
// the result is bit-identical to one-row passes over the minibatch in
// order (contract rule 1).
func (p *PPO) updateMiniBatch(steps []Transition, batch []int, stats *UpdateStats) {
	params := p.net.Params()
	nn.ZeroGrads(params)
	scale := 1 / float64(len(batch))

	b := len(batch)
	obsDim, actDim := p.net.ObsDim(), p.net.ActDim()
	p.obsB.Resize(b, obsDim)
	p.dMeanB.Resize(b, actDim)
	p.dLogStdB.Resize(b, actDim)
	p.dValueB = growSlice(p.dValueB, b)
	for bi, i := range batch {
		copy(p.obsB.Row(bi), steps[i].Obs)
	}

	means, logStd, values := p.net.ForwardBatch(&p.obsB)

	for bi, i := range batch {
		dMean, dLogStd := p.dMeanB.Row(bi), p.dLogStdB.Row(bi)
		dValue, policyLoss, valueLoss, clipped :=
			p.rowLoss(&steps[i], means.Row(bi), logStd, values[bi], dMean, dLogStd, scale)
		p.dValueB[bi] = dValue
		if clipped {
			stats.ClipFraction++
		}
		stats.PolicyLoss += policyLoss
		stats.ValueLoss += valueLoss
		stats.Entropy += gaussianEntropy(logStd)
		stats.Samples++
	}

	p.net.BackwardBatch(&p.dMeanB, &p.dLogStdB, p.dValueB)

	nn.ClipGradNorm(params, p.cfg.MaxGradNorm)
	p.opt.Step(params)
	p.clampLogStd()
}

// rowLoss computes one rollout sample's contribution to the minibatch
// loss: it fills the scaled, sign-flipped gradient rows dMean and dLogStd
// and returns the scaled value-head gradient plus the per-row statistics
// terms.
func (p *PPO) rowLoss(tr *Transition, mean, logStd []float64, value float64, dMean, dLogStd []float64, scale float64) (dValue, policyLoss, valueLoss float64, clipped bool) {
	newLogP := gaussianLogProb(tr.Action, mean, logStd)
	ratio := math.Exp(newLogP - tr.LogProb)
	adv := tr.Advantage

	// Clipped surrogate (Eqs. 15, 19). The unclipped branch carries
	// gradient only when it attains the min.
	surr1 := ratio * adv
	clip := mathx.Clamp(ratio, 1-p.cfg.ClipEps, 1+p.cfg.ClipEps)
	surr2 := clip * adv

	// Gradient of the maximized objective w.r.t. mean/logstd.
	var dObjDLogP float64
	if surr1 <= surr2 {
		dObjDLogP = ratio * adv // d(r·A)/dlogp = r·A... chain below
	}
	gaussianLogProbGrads(tr.Action, mean, logStd, dMean, dLogStd)
	// We minimize loss = -objective, so flip signs. The entropy bonus
	// adds +β·H; dH/dlogσ = 1 per dimension.
	for d := range dMean {
		dMean[d] *= -dObjDLogP * scale
		dLogStd[d] = -dObjDLogP*dLogStd[d]*scale - p.cfg.EntropyCoef*scale
	}

	// Value loss (Eq. 16): (V - V^targ)². d/dV = 2(V - V^targ).
	vErr := value - tr.Return
	dValue = p.cfg.ValueCoef * 2 * vErr * scale
	return dValue, -math.Min(surr1, surr2), vErr * vErr, ratio != clip
}

// growSlice sizes s to length n, reusing capacity when possible. The
// contents are unspecified; callers fully overwrite them.
func growSlice(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// clampLogStd keeps the exploration scale above the configured floor.
func (p *PPO) clampLogStd() {
	ls := p.net.logStd
	for i := range ls.Value {
		if ls.Value[i] < p.cfg.MinLogStd {
			ls.Value[i] = p.cfg.MinLogStd
		}
	}
}
