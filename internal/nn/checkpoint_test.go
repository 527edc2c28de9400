package nn

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
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

// TestFullCheckpointRoundTrip is the round-trip property test of the full
// format: Snapshot → Save → Load → Restore is value-identical for the
// parameters, the optimizer moments, and every auxiliary section.
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
	ck.RNG = &RNGState{Seed: 42, Calls: 12345}
	ck.Envs = []EnvState{{RNG: RNGState{Seed: 7, Calls: 9}, Best: 1.5, BestSet: true}, {RNG: RNGState{Seed: 8}}}
	ck.Meta = &TrainMeta{Episodes: 17, Fingerprint: "fp-v1"}

	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(&buf)
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

// TestLoadCheckpointRejectsMalformed pins the decode validation: hand-
// edited or truncated files fail with descriptive errors instead of
// loading garbage.
func TestLoadCheckpointRejectsMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"truncated":       `{"params":{"w":[1,`,
		"empty-param":     `{"params":{"w":[]}}`,
		"no-params":       `{"version":1}`,
		"unknown-field":   `{"params":{"w":[1]},"surprise":3}`,
		"future-version":  `{"version":99,"params":{"w":[1]}}`,
		"bad-opt-algo":    `{"params":{"w":[1]},"opt":{"algo":"sgd","m":{"w":[0]},"v":{"w":[0]}}}`,
		"opt-extra-param": `{"params":{"w":[1]},"opt":{"algo":"adam","m":{"w":[0],"x":[0]},"v":{"w":[0],"x":[0]}}}`,
		"opt-short-m":     `{"params":{"w":[1,2]},"opt":{"algo":"adam","m":{"w":[0]},"v":{"w":[0,0]}}}`,
		"neg-episodes":    `{"params":{"w":[1]},"meta":{"episodes":-2}}`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadCheckpoint(strings.NewReader(in)); err == nil {
				t.Fatalf("malformed checkpoint %s loaded", name)
			}
		})
	}
}

// TestValidateRejectsNonFinite covers the NaN/Inf guard directly (the
// JSON decoder cannot produce them, but hand-built checkpoints and future
// binary formats can).
func TestValidateRejectsNonFinite(t *testing.T) {
	for name, v := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)} {
		ck := &Checkpoint{Params: map[string][]float64{"w": {1, v}}}
		if err := ck.Validate(); err == nil {
			t.Errorf("%s value validated", name)
		}
		if err := ck.Save(&bytes.Buffer{}); err == nil {
			t.Errorf("%s value saved", name)
		}
	}
	ck := &Checkpoint{Params: map[string][]float64{"w": {1}}, Envs: []EnvState{{Best: math.NaN(), BestSet: true}}}
	if err := ck.Validate(); err == nil {
		t.Error("NaN env best validated")
	}
}

// TestLoadCheckpointRejectsNegativeSecondMoment pins the sign check on
// Adam's second moments. v is an average of squared gradients, so only a
// corrupt or hostile file holds a negative entry, and Adam's square root
// of it would turn the weights into NaN. Both encodings refuse it, the
// binary one with its checksum intact, naming the parameter and element.
func TestLoadCheckpointRejectsNegativeSecondMoment(t *testing.T) {
	ck := fullCheckpoint(t)
	ck.Opt.V["trunk.l0.W"][5] = -1
	js, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{"json": js, "binary": negativeSecondMomentFile(t)} {
		_, err := LoadCheckpoint(bytes.NewReader(in))
		if err == nil {
			t.Fatalf("%s: checkpoint with a negative second moment loaded", name)
		}
		if !strings.Contains(err.Error(), `v "trunk.l0.W" element 5`) {
			t.Fatalf("%s: error does not name the parameter and element: %v", name, err)
		}
	}
	// −0 is not negative: √(−0) = −0, and the step stays finite.
	ck.Opt.V["trunk.l0.W"][5] = math.Copysign(0, -1)
	if err := ck.Validate(); err != nil {
		t.Fatalf("−0 second moment rejected: %v", err)
	}
}

// TestLegacyParamsOnlyCheckpointLoads keeps version-0 files (the
// historical params-only JSON written before full checkpointing) loading
// for weight-only warm starts.
func TestLegacyParamsOnlyCheckpointLoads(t *testing.T) {
	ck, err := LoadCheckpoint(strings.NewReader(`{"params":{"w":[0.5,-1]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Version != 0 || ck.Opt != nil || ck.RNG != nil || ck.Meta != nil {
		t.Fatalf("legacy checkpoint mis-parsed: %+v", ck)
	}
	p := newParam("w", 2)
	if err := ck.Restore([]*Param{p}); err != nil {
		t.Fatal(err)
	}
	if p.Value[0] != 0.5 || p.Value[1] != -1 {
		t.Fatalf("restored %v", p.Value)
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes through the loader — both the
// JSON path and, via the leading magic, the binary decoder: it must never
// panic — malformed, truncated, or hostile input returns an error (or a
// checkpoint that passed validation).
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add(`{"params":{"w":[1,2]}}`)
	f.Add(`{"version":1,"params":{"w":[1]},"opt":{"algo":"adam","step":3,"m":{"w":[0]},"v":{"w":[0]}},"rng":{"seed":1,"calls":10},"envs":[{"rng":{"seed":2,"calls":5},"best":1.5,"best_set":true}],"meta":{"episodes":4,"fingerprint":"x"}}`)
	f.Add(`{"params":{"w":[`)
	f.Add(`{"params":{"w":[]}}`)
	f.Add(`{"params":{"w":[1e308,-1e308]}}`)
	f.Add(`{"version":-1,"params":{"w":[1]}}`)
	f.Add(`null`)
	f.Add(``)
	f.Add(`[1,2,3]`)
	// Binary seeds: a valid encoding, truncations, a bit flip, trailing
	// garbage, and a bare/hostile header.
	bin := fuzzBinarySeed(f)
	f.Add(string(bin))
	f.Add(string(bin[:len(bin)/2]))
	f.Add(string(bin[:len(bin)-2]))
	flipped := append([]byte(nil), bin...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(string(flipped))
	f.Add(string(bin) + "tail")
	f.Add(binaryMagic)
	f.Add(binaryMagic + "\x02\x00P\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01Z")
	// A negative Adam second moment, in JSON and checksum-intact binary.
	f.Add(`{"version":1,"params":{"w":[1]},"opt":{"algo":"adam","step":3,"m":{"w":[0]},"v":{"w":[-1]}}}`)
	f.Add(string(negativeSecondMomentFile(f)))
	f.Fuzz(func(t *testing.T, in string) {
		ck, err := LoadCheckpoint(strings.NewReader(in))
		if err != nil {
			return
		}
		// Whatever loads must re-validate and re-save cleanly in both
		// encodings, and the binary re-encoding must load back.
		if err := ck.Validate(); err != nil {
			t.Fatalf("loaded checkpoint fails validation: %v", err)
		}
		if err := ck.Save(&bytes.Buffer{}); err != nil {
			t.Fatalf("loaded checkpoint fails to save: %v", err)
		}
		var buf bytes.Buffer
		if err := ck.SaveBinary(&buf); err != nil {
			t.Fatalf("loaded checkpoint fails to save as binary: %v", err)
		}
		if _, err := LoadCheckpoint(&buf); err != nil {
			t.Fatalf("binary re-encoding fails to load: %v", err)
		}
	})
}

// fuzzBinarySeed builds a small valid binary checkpoint for the fuzz
// corpus.
func fuzzBinarySeed(f *testing.F) []byte {
	f.Helper()
	ck := &Checkpoint{
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
	var buf bytes.Buffer
	if err := ck.SaveBinary(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
