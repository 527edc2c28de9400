package nn

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vtmig/internal/mathx"
)

// randomParams builds a deterministic random parameter set.
func randomParams(rng *rand.Rand, sizes map[string]int) []*Param {
	names := make([]string, 0, len(sizes))
	for name := range sizes {
		names = append(names, name)
	}
	// map order is random; fix it so the test is reproducible
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	params := make([]*Param, 0, len(names))
	for _, name := range names {
		p := newParam(name, sizes[name])
		for i := range p.Value {
			p.Value[i] = rng.NormFloat64()
		}
		params = append(params, p)
	}
	return params
}

// TestFullCheckpointRoundTrip is the round-trip property test of the
// format: Snapshot → SaveBinary → Load → Restore is value-identical for
// the parameters, the optimizer moments, and every auxiliary section.
func TestFullCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	params := randomParams(rng, map[string]int{"a.W": 12, "a.b": 3, "logstd": 1})

	// Give the optimizer a real state by stepping a few times.
	opt := NewAdam(1e-3)
	for step := 0; step < 5; step++ {
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] = rng.NormFloat64()
			}
		}
		opt.Step(params)
	}

	ck, err := Snapshot(params)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Version != CheckpointVersion {
		t.Fatalf("Snapshot version %d, want %d", ck.Version, CheckpointVersion)
	}
	if ck.Opt, err = opt.StateSnapshot(params); err != nil {
		t.Fatal(err)
	}
	src := mathx.NewCountingSourceAt(42, 12345)
	ck.RNG = &RNGState{Seed: 42, Calls: src.Calls(), State: src.StateSnapshot()}
	ck.Envs = []EnvState{{RNG: RNGState{Seed: 7, Calls: 9}, Best: 1.5, BestSet: true}, {RNG: RNGState{Seed: 8}}}
	ck.Meta = &TrainMeta{Episodes: 17, Fingerprint: "fp-v1"}

	var buf bytes.Buffer
	if err := ck.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// Perturb everything, then restore.
	for _, p := range params {
		for i := range p.Value {
			p.Value[i] += 1
		}
	}
	fresh := NewAdam(1e-3)
	if err := loaded.Restore(params); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(params, loaded.Opt); err != nil {
		t.Fatal(err)
	}

	for _, p := range params {
		want := ck.Params[p.Name]
		for i := range p.Value {
			if math.Float64bits(p.Value[i]) != math.Float64bits(want[i]) {
				t.Fatalf("param %q[%d] = %v, want %v", p.Name, i, p.Value[i], want[i])
			}
		}
		for label, moments := range map[string]map[*Param][]float64{"m": fresh.m, "v": fresh.v} {
			want := ck.Opt.M[p.Name]
			if label == "v" {
				want = ck.Opt.V[p.Name]
			}
			got := moments[p]
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("moment %s %q[%d] = %v, want %v", label, p.Name, i, got[i], want[i])
				}
			}
		}
	}
	if fresh.t != opt.t {
		t.Fatalf("restored step %d, want %d", fresh.t, opt.t)
	}
	if !reflect.DeepEqual(loaded.RNG, ck.RNG) || *loaded.Meta != *ck.Meta || !reflect.DeepEqual(loaded.Envs, ck.Envs) {
		t.Fatal("auxiliary sections did not round-trip")
	}
}

// TestAdamRestoredStateContinuesIdentically pins the optimizer half of
// resume bit-identity: stepping a restored Adam produces exactly the
// parameters a continued run would.
func TestAdamRestoredStateContinuesIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cont := randomParams(rng, map[string]int{"w": 8})
	contOpt := NewAdam(0.01)

	grads := make([][]float64, 20)
	for i := range grads {
		grads[i] = make([]float64, 8)
		for j := range grads[i] {
			grads[i][j] = rng.NormFloat64()
		}
	}
	apply := func(opt *Adam, params []*Param, g []float64) {
		copy(params[0].Grad, g)
		opt.Step(params)
	}
	for i := 0; i < 10; i++ {
		apply(contOpt, cont, grads[i])
	}

	// Snapshot at step 10 and restore into a fresh optimizer + params.
	ck, err := Snapshot(cont)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Opt, err = contOpt.StateSnapshot(cont); err != nil {
		t.Fatal(err)
	}
	res := []*Param{newParam("w", 8)}
	resOpt := NewAdam(0.01)
	if err := ck.Restore(res); err != nil {
		t.Fatal(err)
	}
	if err := resOpt.RestoreState(res, ck.Opt); err != nil {
		t.Fatal(err)
	}

	for i := 10; i < 20; i++ {
		apply(contOpt, cont, grads[i])
		apply(resOpt, res, grads[i])
	}
	for i := range cont[0].Value {
		if math.Float64bits(cont[0].Value[i]) != math.Float64bits(res[0].Value[i]) {
			t.Fatalf("element %d diverged: %v vs %v", i, cont[0].Value[i], res[0].Value[i])
		}
	}
}

// TestRestoreRejectsUnknownParam pins the strictness fix: a checkpoint
// carrying parameters the network does not have must fail loudly instead
// of partially applying.
func TestRestoreRejectsUnknownParam(t *testing.T) {
	ck := &Checkpoint{Params: map[string][]float64{"w": {1}, "stale.W": {2, 3}}}
	err := ck.Restore([]*Param{newParam("w", 1)})
	if err == nil {
		t.Fatal("checkpoint with unknown parameter restored")
	}
	if !strings.Contains(err.Error(), "stale.W") {
		t.Fatalf("error does not name the unknown parameter: %v", err)
	}
}

// TestRestoreStateStrict pins the optimizer-state restore checks.
func TestRestoreStateStrict(t *testing.T) {
	p := newParam("w", 2)
	good := &OptState{Algo: "adam", Step: 1, M: map[string][]float64{"w": {0, 0}}, V: map[string][]float64{"w": {0, 0}}}
	for name, st := range map[string]*OptState{
		"nil":        nil,
		"wrong-algo": {Algo: "sgd", M: good.M, V: good.V},
		"neg-step":   {Algo: "adam", Step: -1, M: good.M, V: good.V},
		"missing-m":  {Algo: "adam", M: map[string][]float64{}, V: good.V},
		"short-v":    {Algo: "adam", M: good.M, V: map[string][]float64{"w": {0}}},
		"extra": {Algo: "adam", M: map[string][]float64{"w": {0, 0}, "x": {0}},
			V: map[string][]float64{"w": {0, 0}, "x": {0}}},
	} {
		if err := NewAdam(0.1).RestoreState([]*Param{p}, st); err == nil {
			t.Errorf("%s: invalid optimizer state restored", name)
		}
	}
	if err := NewAdam(0.1).RestoreState([]*Param{p}, good); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
}

// TestLoadCheckpointRejectsMalformed pins the decode validation: each
// case starts from fullCheckpoint's encoding, breaks one thing in the
// bytes — the checksum recomputed wherever the checksum is not the point
// — and must fail with an error naming it instead of loading garbage.
func TestLoadCheckpointRejectsMalformed(t *testing.T) {
	ck := fullCheckpoint(t)
	good := encodeUnchecked(ck)
	// params is the encoding of ck's params section after edit.
	params := func(edit func(m map[string][]float64)) []byte {
		m := make(map[string][]float64, len(ck.Params))
		for name, v := range ck.Params {
			m[name] = v
		}
		edit(m)
		return section(func(e *binWriter) {
			e.tag('P')
			e.paramTable(m)
		})
	}
	sameParams := params(func(map[string][]float64) {})
	unchecked := func(edit func(c *Checkpoint)) []byte {
		c := fullCheckpoint(t)
		edit(c)
		return encodeUnchecked(c)
	}
	for _, c := range []struct {
		name string
		file []byte
		want string
	}{
		{"truncated", good[:len(good)/2], "truncated or corrupted"},
		{"empty-param", replaceOnce(t, good, sameParams, params(func(m map[string][]float64) { m["empty"] = nil })), `parameter "empty" is empty`},
		{"no-params", replaceOnce(t, good, sameParams, params(func(m map[string][]float64) { clear(m) })), "no parameters"},
		{"unknown-field", replaceOnce(t, good, metaBytes(ck.Meta), append([]byte{'X'}, metaBytes(ck.Meta)[1:]...)), "unknown or out-of-order section 'X'"},
		{"future-version", unchecked(func(c *Checkpoint) { c.Version = 99 }), "version 99 not supported"},
		{"bad-opt-algo", unchecked(func(c *Checkpoint) { c.Opt.Algo = "sgd" }), `optimizer "sgd" unknown`},
		{"opt-extra-param", unchecked(func(c *Checkpoint) { c.Opt.M["x"] = []float64{0} }), "optimizer m covers 5 parameters, want 4"},
		{"opt-short-m", unchecked(func(c *Checkpoint) { c.Opt.M["logstd"] = []float64{} }), `optimizer m for "logstd" has length 0, want 1`},
		{"neg-episodes", unchecked(func(c *Checkpoint) { c.Meta.Episodes = -2 }), "exceeds the format cap"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := LoadCheckpoint(c.file)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadCheckpoint: %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// TestValidateRejectsNonFinite covers the NaN/Inf guard: each case starts
// from fullCheckpoint, puts one non-finite value in a section, and
// Validate and AppendBinary must refuse it, naming where it sits.
func TestValidateRejectsNonFinite(t *testing.T) {
	for name, v := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)} {
		for _, c := range []struct {
			section string
			set     func(ck *Checkpoint)
			want    string
		}{
			{"param", func(ck *Checkpoint) { ck.Params["trunk.l0.W"][1] = v }, `parameter "trunk.l0.W" element 1`},
			{"moment", func(ck *Checkpoint) { ck.Opt.M["head.mean"][2] = v }, `optimizer m "head.mean" element 2`},
			{"env-best", func(ck *Checkpoint) { ck.Envs[0].Best = v }, "env 0 best value"},
			{"pricer-history", func(ck *Checkpoint) { ck.Pricer.History[1][0] = v }, "pricer history[1][0]"},
		} {
			ck := fullCheckpoint(t)
			c.set(ck)
			if err := ck.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s %s: Validate: %v, want an error containing %q", name, c.section, err, c.want)
			}
			if _, err := ck.AppendBinary(nil); err == nil {
				t.Errorf("%s %s: encoded", name, c.section)
			}
		}
	}
}

// TestLoadCheckpointRejectsNegativeSecondMoment pins the sign check on
// Adam's second moments. v is an average of squared gradients, so only a
// corrupt or hostile file holds a negative entry, and Adam's square root
// of it would turn the weights into NaN. The decoder refuses it with the
// checksum intact, naming the parameter and element.
func TestLoadCheckpointRejectsNegativeSecondMoment(t *testing.T) {
	_, err := LoadCheckpoint(negativeSecondMomentFile(t))
	if err == nil {
		t.Fatal("checkpoint with a negative second moment loaded")
	}
	if !strings.Contains(err.Error(), `v "trunk.l0.W" element 5`) {
		t.Fatalf("error does not name the parameter and element: %v", err)
	}
	// −0 is not negative: √(−0) = −0, and the step stays finite.
	ck := fullCheckpoint(t)
	ck.Opt.V["trunk.l0.W"][5] = math.Copysign(0, -1)
	if err := ck.Validate(); err != nil {
		t.Fatalf("−0 second moment rejected: %v", err)
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes through the binary decoder: it
// must never panic — malformed, truncated, or hostile input returns an
// error — and whatever loads must re-encode to a file that loads back to
// the same checkpoint.
func FuzzLoadCheckpoint(f *testing.F) {
	bin := encodeUnchecked(fuzzSeedCheckpoint())
	f.Add(bin)
	f.Add(bin[:len(bin)/2])
	f.Add(bin[:len(bin)-2])
	flipped := append([]byte(nil), bin...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add(append(append([]byte(nil), bin...), "tail"...))
	f.Add([]byte(binaryMagic))
	f.Add([]byte(binaryMagic + "\x02\x00P\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01Z"))
	f.Add(negativeSecondMomentFile(f))
	// Checksum-intact files of other shapes: older and newer versions, a
	// missing required section, an unknown one, sections out of order, a
	// stream old enough to need its state without one, and counters far
	// above every length cap.
	seed := func(edit func(c *Checkpoint)) {
		c := fuzzSeedCheckpoint()
		edit(c)
		f.Add(encodeUnchecked(c))
	}
	seed(func(c *Checkpoint) { c.Version = 0 })
	seed(func(c *Checkpoint) { c.Version = 1 })
	seed(func(c *Checkpoint) { c.Version = 3 })
	seed(func(c *Checkpoint) { c.RNG.Calls = 1 << 40 })
	seed(func(c *Checkpoint) { c.Envs[0].RNG.Calls = mathx.StateLen })
	seed(func(c *Checkpoint) {
		c.Opt.Step, c.Meta.Episodes = 1<<40, 1<<40
		c.Pricer.Rounds, c.Pricer.Updates, c.Pricer.Snapshots = 1<<40, 1<<40, 1<<40
	})
	seed(func(c *Checkpoint) { c.Envs, c.Pricer = nil, nil })
	c := fuzzSeedCheckpoint()
	meta, rng := metaBytes(c.Meta), append([]byte{'R'}, rngBytes(*c.RNG)...)
	f.Add(replaceOnce(f, bin, meta, append([]byte{'X'}, meta[1:]...))) // unknown section
	f.Add(replaceOnce(f, bin, rng, append(meta, rng...)))              // meta before rng
	f.Add(replaceOnce(f, bin, meta, nil))                              // no meta
	f.Add(withCRC(append(bin[:len(bin)-4:len(bin)-4], 'Z')))           // trailing byte
	f.Fuzz(func(t *testing.T, in []byte) {
		ck, err := LoadCheckpoint(in)
		if err != nil {
			return
		}
		data, err := ck.AppendBinary(nil)
		if err != nil {
			t.Fatalf("loaded checkpoint fails to encode: %v", err)
		}
		again, err := LoadCheckpoint(data)
		if err != nil {
			t.Fatalf("re-encoding fails to load: %v", err)
		}
		if !reflect.DeepEqual(ck, again) {
			t.Fatal("re-encoding loads to a different checkpoint")
		}
	})
}

// fuzzSeedCheckpoint builds a small checkpoint with every section.
func fuzzSeedCheckpoint() *Checkpoint {
	return &Checkpoint{
		Version: CheckpointVersion,
		Params:  map[string][]float64{"w": {1, 2}, "b": {3}},
		Opt:     &OptState{Algo: "adam", Step: 3, M: map[string][]float64{"w": {0, 0}, "b": {0}}, V: map[string][]float64{"w": {0, 0}, "b": {0}}},
		RNG:     &RNGState{Seed: 1, Calls: 10},
		Envs:    []EnvState{{RNG: RNGState{Seed: 2, Calls: 5}, Best: 1.5, BestSet: true}},
		Meta:    &TrainMeta{Episodes: 4, Fingerprint: "x", PPO: "y"},
		Pricer: &PricerState{
			History: [][]float64{{0.1, 0.2}, {0.3, 0.4}}, Obs: []float64{0.1, 0.2, 0.3, 0.4},
			Best: 2, BestSet: true, Rounds: 40, Updates: 2, Snapshots: 1, UpdateEvery: 20, Reward: 1,
		},
	}
}
