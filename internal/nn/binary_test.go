package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vtmig/internal/mathx"
)

// fullCheckpoint builds a deterministic checkpoint exercising every
// section, including a captured RNG generator state and the pricer
// section.
func fullCheckpoint(t testing.TB) *Checkpoint {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	params := randomParams(rng, map[string]int{"trunk.l0.W": 24, "trunk.l0.b": 4, "head.mean": 4, "logstd": 1})
	opt := NewAdam(1e-3)
	for step := 0; step < 3; step++ {
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
	if ck.Opt, err = opt.StateSnapshot(params); err != nil {
		t.Fatal(err)
	}
	src := mathx.NewCountingSourceAt(42, mathx.StateLen+37)
	ck.RNG = &RNGState{Seed: 42, Calls: src.Calls(), State: src.StateSnapshot()}
	ck.Envs = []EnvState{
		{RNG: RNGState{Seed: 7, Calls: 9}, Best: 1.5, BestSet: true},
		{RNG: RNGState{Seed: 8}},
	}
	ck.Meta = &TrainMeta{Episodes: 17, Fingerprint: "fp", PPO: "ppo-fp"}
	ck.Pricer = &PricerState{
		History:     [][]float64{{0.25, 0.5, 0.75}, {0.1, 0.2, 0.3}},
		Obs:         []float64{0.25, 0.5, 0.75, 0.1, 0.2, 0.3},
		Best:        3.25,
		BestSet:     true,
		Rounds:      40,
		Updates:     2,
		Snapshots:   1,
		UpdateEvery: 20,
		Reward:      2,
		BestTolFrac: 0.01,
	}
	return ck
}

// largeCheckpoint builds a deterministic checkpoint whose vectors and
// tables are long enough for multi-byte length prefixes (a 20,000-word
// vector, a 300-word one, a 200-byte name).
func largeCheckpoint(t testing.TB) *Checkpoint {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	long := strings.Repeat("n", 200)
	params := randomParams(rng, map[string]int{"big": 20000, "mid": 300, long: 3})
	opt := NewAdam(1e-3)
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = rng.NormFloat64()
		}
	}
	opt.Step(params)
	ck, err := Snapshot(params)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Opt, err = opt.StateSnapshot(params); err != nil {
		t.Fatal(err)
	}
	ck.RNG = &RNGState{Seed: -3, Calls: 1 << 40}
	return ck
}

// TestBinaryEncodingBytesPinned pins the binary encoding byte for byte.
// The digests were computed with the bytes.Buffer encoder that
// AppendBinary replaced; SaveBinary and AppendBinary — onto an empty
// slice, onto a non-empty prefix, and into a reused buffer — must all
// still produce exactly those bytes.
func TestBinaryEncodingBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		ck     *Checkpoint
		size   int
		digest string
	}{
		{"full", fullCheckpoint(t), 6006, "a7f29a41661e627d6b1ad720a0ca0f1162116968442a97154758e15b73493baa"},
		{"large", largeCheckpoint(t), 487960, "9ab6ec88b6d06fe84c7dfdac38d7e9810f61943fe1fdc2f02b21700861f762e3"},
		{"v0-params-only", &Checkpoint{Version: 0, Params: map[string][]float64{"w": {0.5, -1}}}, 32, "fc47a02b279f34091d25dcabc5d35917459e83600d4b290a12b9201882903762"},
	} {
		t.Run(c.name, func(t *testing.T) {
			check := func(how string, data []byte) {
				t.Helper()
				if sum := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != c.size || sum != c.digest {
					t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, sha256 %s", how, len(data), sum, c.size, c.digest)
				}
			}
			var buf bytes.Buffer
			if err := c.ck.SaveBinary(&buf); err != nil {
				t.Fatal(err)
			}
			check("SaveBinary", buf.Bytes())
			fresh, err := c.ck.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			check("AppendBinary(nil)", fresh)
			prefixed, err := c.ck.AppendBinary([]byte("prefix"))
			if err != nil {
				t.Fatal(err)
			}
			if string(prefixed[:6]) != "prefix" {
				t.Errorf("AppendBinary overwrote the prefix: %q", prefixed[:6])
			}
			check("AppendBinary(prefix)", prefixed[6:])
			reused, err := c.ck.AppendBinary(prefixed[:0])
			if err != nil {
				t.Fatal(err)
			}
			check("AppendBinary(reused)", reused)
		})
	}
}

// TestBinaryRoundTripBitIdentical is the binary round-trip property test:
// SaveBinary → LoadCheckpoint reproduces every section value-identically
// (floats bit for bit — DeepEqual on float64 is bitwise for the finite
// values checkpoints allow).
func TestBinaryRoundTripBitIdentical(t *testing.T) {
	ck := fullCheckpoint(t)
	var buf bytes.Buffer
	if err := ck.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, loaded) {
		t.Fatalf("binary round trip not identical:\nsaved:  %+v\nloaded: %+v", ck, loaded)
	}
}

// TestBinaryJSONCrossRoundTrip pins the two encodings to the same value:
// JSON(ck) and Binary(ck) load to identical checkpoints, and re-encoding
// the binary-loaded one as JSON matches the directly JSON-encoded bytes.
func TestBinaryJSONCrossRoundTrip(t *testing.T) {
	ck := fullCheckpoint(t)
	var jsonBuf, binBuf bytes.Buffer
	if err := ck.Save(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := ck.SaveBinary(&binBuf); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len() >= jsonBuf.Len() {
		t.Errorf("binary encoding (%d bytes) not smaller than JSON (%d bytes)", binBuf.Len(), jsonBuf.Len())
	}
	fromJSON, err := LoadCheckpoint(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := LoadCheckpoint(&binBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, fromBin) {
		t.Fatal("JSON and binary decodings differ")
	}
	var reJSON, directJSON bytes.Buffer
	if err := fromBin.Save(&reJSON); err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(&directJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reJSON.Bytes(), directJSON.Bytes()) {
		t.Fatal("binary → JSON re-encoding differs from direct JSON encoding")
	}
}

// TestBinaryLegacyVersionsRoundTrip keeps the v0/v1 section subsets
// encodable: a params-only and a version-1 checkpoint survive the binary
// round trip unchanged.
func TestBinaryLegacyVersionsRoundTrip(t *testing.T) {
	for name, ck := range map[string]*Checkpoint{
		"v0-params-only": {Version: 0, Params: map[string][]float64{"w": {0.5, -1}}},
		"v1-full": {
			Version: 1,
			Params:  map[string][]float64{"w": {1, 2}},
			Opt:     &OptState{Algo: "adam", Step: 2, M: map[string][]float64{"w": {0, 0}}, V: map[string][]float64{"w": {0, 0}}},
			RNG:     &RNGState{Seed: 3, Calls: 11},
			Meta:    &TrainMeta{Episodes: 2, Fingerprint: "f"},
		},
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := ck.SaveBinary(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadCheckpoint(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ck, loaded) {
				t.Fatalf("round trip not identical:\nsaved:  %+v\nloaded: %+v", ck, loaded)
			}
		})
	}
}

// TestBinaryCorruptionFailsLoudly pins the decoder's corruption handling:
// every truncation point, any single bit flip, and trailing garbage are
// rejected — nothing decodes to a silently wrong checkpoint.
func TestBinaryCorruptionFailsLoudly(t *testing.T) {
	ck := fullCheckpoint(t)
	var buf bytes.Buffer
	if err := ck.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	bin := buf.Bytes()

	for cut := 0; cut < len(bin); cut++ {
		if _, err := LoadCheckpoint(bytes.NewReader(bin[:cut])); err == nil {
			t.Fatalf("truncation at byte %d/%d loaded", cut, len(bin))
		}
	}
	// Flip one bit in every byte. Flips inside the leading magic make the
	// file fall through to (failing) JSON; everything else must trip the
	// checksum.
	corrupt := make([]byte, len(bin))
	for i := 0; i < len(bin); i++ {
		copy(corrupt, bin)
		corrupt[i] ^= 1 << uint(i%8)
		if _, err := LoadCheckpoint(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("bit flip at byte %d loaded", i)
		}
	}
	if _, err := LoadCheckpoint(bytes.NewReader(append(append([]byte(nil), bin...), 0))); err == nil {
		t.Fatal("trailing garbage loaded")
	}
}

// TestBinaryRejectsHostileLengths pins the pre-allocation caps: a tiny
// hand-built file claiming a huge table must fail on the cap, not attempt
// the allocation (the checksum is made valid so the cap is what trips).
func TestBinaryRejectsHostileLengths(t *testing.T) {
	body := []byte(binaryMagic)
	body = append(body, 2, 0) // version 2
	body = append(body, 'P')
	body = append(body, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01) // uvarint ~2^63
	body = append(body, 'Z')
	file := make([]byte, len(body)+4)
	copy(file, body)
	binary.LittleEndian.PutUint32(file[len(body):], crc32.ChecksumIEEE(body))
	_, err := LoadCheckpoint(bytes.NewReader(file))
	if err == nil {
		t.Fatal("hostile length loaded")
	}
	if !strings.Contains(err.Error(), "cap") {
		t.Fatalf("hostile length not stopped by the cap: %v", err)
	}
}

// negativeSecondMomentFile returns a binary checkpoint, checksum intact,
// whose Adam second moment "trunk.l0.W" element 5 is negative. SaveBinary
// refuses to write one, so the value is written positive, its sign bit
// flipped in the encoded bytes, and the checksum recomputed.
func negativeSecondMomentFile(tb testing.TB) []byte {
	tb.Helper()
	const sentinel = 0.0078125
	ck := fullCheckpoint(tb)
	ck.Opt.V["trunk.l0.W"][5] = sentinel
	var buf bytes.Buffer
	if err := ck.SaveBinary(&buf); err != nil {
		tb.Fatal(err)
	}
	bin := buf.Bytes()
	var pos, neg [8]byte
	binary.LittleEndian.PutUint64(pos[:], math.Float64bits(sentinel))
	binary.LittleEndian.PutUint64(neg[:], math.Float64bits(-sentinel))
	if n := bytes.Count(bin, pos[:]); n != 1 {
		tb.Fatalf("sentinel encoded %d times, want once", n)
	}
	body := bytes.Replace(bin[:len(bin)-4], pos[:], neg[:], 1)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestValidateVersionGates pins the version negotiation: version-2-only
// sections on a lower version, and states that claim the impossible, are
// rejected in both encodings' shared validation.
func TestValidateVersionGates(t *testing.T) {
	for name, ck := range map[string]*Checkpoint{
		"v1-with-pricer": {
			Version: 1, Params: map[string][]float64{"w": {1}},
			Pricer: &PricerState{History: [][]float64{{1}}, Obs: []float64{1}, Rounds: 1, Updates: 1, UpdateEvery: 1, Reward: 1},
		},
		"v1-with-rng-state": {
			Version: 1, Params: map[string][]float64{"w": {1}},
			RNG: &RNGState{Seed: 1, Calls: mathx.StateLen, State: make([]uint64, mathx.StateLen)},
		},
		"v2-short-rng-state": {
			Version: 2, Params: map[string][]float64{"w": {1}},
			RNG: &RNGState{Seed: 1, Calls: mathx.StateLen, State: make([]uint64, 3)},
		},
		"v2-state-too-few-calls": {
			Version: 2, Params: map[string][]float64{"w": {1}},
			RNG: &RNGState{Seed: 1, Calls: 5, State: make([]uint64, mathx.StateLen)},
		},
		"v2-env-state-on-v1": {
			Version: 1, Params: map[string][]float64{"w": {1}},
			Envs: []EnvState{{RNG: RNGState{Seed: 1, Calls: mathx.StateLen, State: make([]uint64, mathx.StateLen)}}},
		},
		"pricer-width-mismatch": {
			Version: 2, Params: map[string][]float64{"w": {1}},
			Pricer: &PricerState{History: [][]float64{{1, 2}, {3}}, Obs: []float64{1, 2, 3}, Rounds: 1, Updates: 1, UpdateEvery: 1, Reward: 1},
		},
		"pricer-obs-mismatch": {
			Version: 2, Params: map[string][]float64{"w": {1}},
			Pricer: &PricerState{History: [][]float64{{1, 2}}, Obs: []float64{1}, Rounds: 1, Updates: 1, UpdateEvery: 1, Reward: 1},
		},
		"pricer-updates-exceed-rounds": {
			Version: 2, Params: map[string][]float64{"w": {1}},
			Pricer: &PricerState{History: [][]float64{{1}}, Obs: []float64{1}, Rounds: 1, Updates: 2, UpdateEvery: 1, Reward: 1},
		},
		"pricer-zero-cadence": {
			Version: 2, Params: map[string][]float64{"w": {1}},
			Pricer: &PricerState{History: [][]float64{{1}}, Obs: []float64{1}, Rounds: 1, Updates: 1, UpdateEvery: 0, Reward: 1},
		},
	} {
		t.Run(name, func(t *testing.T) {
			if err := ck.Validate(); err == nil {
				t.Fatalf("%s validated", name)
			}
		})
	}
	// The valid v2 shape passes.
	ok := &Checkpoint{
		Version: 2, Params: map[string][]float64{"w": {1}},
		RNG:    &RNGState{Seed: 1, Calls: mathx.StateLen + 5, State: make([]uint64, mathx.StateLen)},
		Pricer: &PricerState{History: [][]float64{{1}}, Obs: []float64{1}, Rounds: 20, Updates: 1, UpdateEvery: 20, Reward: 1},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid v2 checkpoint rejected: %v", err)
	}
}
