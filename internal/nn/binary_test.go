package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
		opt.Step(params, 1)
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

// largeCheckpoint builds a deterministic checkpoint whose vectors, tables
// and strings are long enough for multi-byte length prefixes (a
// 20,000-word vector, a 300-word one, a 200-byte name and fingerprint),
// on a policy stream old enough to carry its captured state.
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
	opt.Step(params, 1)
	ck, err := Snapshot(params)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Opt, err = opt.StateSnapshot(params); err != nil {
		t.Fatal(err)
	}
	state := make([]uint64, mathx.StateLen)
	for i := range state {
		state[i] = rng.Uint64()
	}
	ck.RNG = &RNGState{Seed: -3, Calls: 1 << 40, State: state}
	ck.Meta = &TrainMeta{Episodes: 3, Fingerprint: long, PPO: "ppo-fp"}
	return ck
}

// TestBinaryEncodingBytesPinned pins the binary encoding byte for byte.
// The digests were computed by earlier encoders; SaveBinary and
// AppendBinary — onto an empty slice, onto a non-empty prefix, and into a
// reused buffer — must all still produce exactly those bytes.
func TestBinaryEncodingBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		ck     *Checkpoint
		size   int
		digest string
	}{
		{"full", fullCheckpoint(t), 6006, "a7f29a41661e627d6b1ad720a0ca0f1162116968442a97154758e15b73493baa"},
		{"large", largeCheckpoint(t), 493028, "a5c45376e9177c4a0a6dff8adbceeaa72b17e8bdfe06aff0e473eb3f346343f5"},
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
	loaded, err := LoadCheckpoint(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, loaded) {
		t.Fatalf("binary round trip not identical:\nsaved:  %+v\nloaded: %+v", ck, loaded)
	}
}

// TestCheckpointLargeCountersRoundTrip pins that the decoder reads back
// every counter the encoder writes: the Adam step, the episode count and
// the pricer's counters, cadence and reward kind are values, not lengths,
// so they decode up to math.MaxInt rather than under a length cap.
func TestCheckpointLargeCountersRoundTrip(t *testing.T) {
	ck := fullCheckpoint(t)
	ck.Opt.Step = 1 << 40
	ck.Meta.Episodes = 1 << 40
	p := ck.Pricer
	p.Rounds, p.Updates, p.Snapshots, p.UpdateEvery, p.Reward = 1<<40, 1<<40, 1<<40, 1<<40, 1<<40
	data, err := ck.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(data)
	if err != nil {
		t.Fatalf("checkpoint the encoder wrote does not load: %v", err)
	}
	if !reflect.DeepEqual(ck, loaded) {
		t.Fatalf("counters did not round-trip:\nsaved:  %+v\nloaded: %+v", ck, loaded)
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
		if _, err := LoadCheckpoint(bin[:cut]); err == nil {
			t.Fatalf("truncation at byte %d/%d loaded", cut, len(bin))
		}
	}
	// Flip one bit in every byte. Flips inside the leading magic fail the
	// magic check; everything else must trip the checksum.
	corrupt := make([]byte, len(bin))
	for i := 0; i < len(bin); i++ {
		copy(corrupt, bin)
		corrupt[i] ^= 1 << uint(i%8)
		if _, err := LoadCheckpoint(corrupt); err == nil {
			t.Fatalf("bit flip at byte %d loaded", i)
		}
	}
	if _, err := LoadCheckpoint(append(append([]byte(nil), bin...), 0)); err == nil {
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
	_, err := LoadCheckpoint(file)
	if err == nil {
		t.Fatal("hostile length loaded")
	}
	if !strings.Contains(err.Error(), "cap") {
		t.Fatalf("hostile length not stopped by the cap: %v", err)
	}
}

// withCRC appends body's checksum, making a file whose corruption the
// checksum cannot see: what trips must be the decoder or Validate.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// encodeUnchecked encodes c as AppendBinary does but without validating
// it first, so a test can also build files the encoder refuses to write.
// c must carry the Opt, RNG and Meta sections.
func encodeUnchecked(c *Checkpoint) []byte {
	e := binWriter{b: []byte(binaryMagic)}
	e.b = binary.LittleEndian.AppendUint16(e.b, uint16(c.Version))
	e.sections(c)
	return withCRC(e.b)
}

// section returns the bytes write appends: one piece of an encoding.
func section(write func(e *binWriter)) []byte {
	var e binWriter
	write(&e)
	return e.b
}

// rngBytes and metaBytes are the encodings of an RNG stream position and
// of a whole meta section.
func rngBytes(r RNGState) []byte { return section(func(e *binWriter) { e.rngState(&r) }) }

func metaBytes(m *TrainMeta) []byte {
	return section(func(e *binWriter) {
		e.tag('M')
		e.uvarint(uint64(m.Episodes))
		e.str(m.Fingerprint)
		e.str(m.PPO)
	})
}

// replaceOnce returns file with its one occurrence of old replaced by new
// (nil: cut out) and the checksum recomputed.
func replaceOnce(tb testing.TB, file, old, new []byte) []byte {
	tb.Helper()
	body := file[:len(file)-4]
	if c := bytes.Count(body, old); c != 1 {
		tb.Fatalf("bytes to replace occur %d times, want once", c)
	}
	return withCRC(bytes.Replace(body, old, new, 1))
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
	f64 := func(x float64) []byte { return section(func(e *binWriter) { e.f64(x) }) }
	return replaceOnce(tb, encodeUnchecked(ck), f64(sentinel), f64(-sentinel))
}

// TestLoadCheckpointRefusesOtherShapes pins that LoadCheckpoint reads
// exactly one shape — binary, version 2, with the optimizer, RNG and meta
// sections, and each RNG stream at least mathx.StateLen draws old
// carrying its captured state — and names what is wrong with any other
// file. Every case but the JSON one is a checksum-intact binary file.
func TestLoadCheckpointRefusesOtherShapes(t *testing.T) {
	ck := fullCheckpoint(t)
	good := encodeUnchecked(ck)
	version := func(v uint16) []byte {
		file := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(file[len(binaryMagic):], v)
		return withCRC(file[:len(file)-4])
	}
	// young's policy stream is one draw short of carrying its state.
	young := fullCheckpoint(t)
	young.RNG = &RNGState{Seed: 42, Calls: mathx.StateLen - 1}
	optimizer := section(func(e *binWriter) {
		e.tag('O')
		e.str(ck.Opt.Algo)
		e.uvarint(uint64(ck.Opt.Step))
		e.paramTable(ck.Opt.M)
		e.paramTable(ck.Opt.V)
	})
	for _, c := range []struct {
		name string
		file []byte
		want string
	}{
		{"json", []byte(`{"version":2,"params":{"w":[1]}}`), "not a binary checkpoint"},
		{"version-0", version(0), "version 0 not supported"},
		{"version-1", version(1), "version 1 not supported"},
		{"version-3", version(3), "version 3 not supported"},
		{"no-optimizer", replaceOnce(t, good, optimizer, nil), "no optimizer ('O') section"},
		{"no-rng", replaceOnce(t, good, append([]byte{'R'}, rngBytes(*ck.RNG)...), nil), "no rng ('R') section"},
		{"no-meta", replaceOnce(t, good, metaBytes(ck.Meta), nil), "no meta ('M') section"},
		{"rng-calls-without-state", replaceOnce(t, encodeUnchecked(young), rngBytes(*young.RNG),
			rngBytes(RNGState{Seed: 42, Calls: 1 << 40})), "rng at 1099511627776 calls has 0 state words"},
		{"env-calls-without-state", replaceOnce(t, good, rngBytes(ck.Envs[0].RNG),
			rngBytes(RNGState{Seed: 7, Calls: mathx.StateLen})), "env 0 rng at 607 calls has 0 state words"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := LoadCheckpoint(c.file)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadCheckpoint: %v, want an error containing %q", err, c.want)
			}
		})
	}
	// One draw younger than the state length, a stream restores by replay.
	if _, err := LoadCheckpoint(encodeUnchecked(young)); err != nil {
		t.Fatalf("policy stream %d draws old without state refused: %v", mathx.StateLen-1, err)
	}
}

// TestValidateVersionGates pins the shape Validate accepts. Each case
// starts from fullCheckpoint, which validates, breaks one thing, and
// must be refused with an error naming it.
func TestValidateVersionGates(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(ck *Checkpoint)
		want   string
	}{
		{"v1-with-pricer", func(ck *Checkpoint) { ck.Version = 1 }, "version 1"},
		{"v1-with-rng-state", func(ck *Checkpoint) { ck.Version, ck.Pricer = 1, nil }, "version 1"},
		{"v2-env-state-on-v1", func(ck *Checkpoint) {
			ck.Version, ck.Pricer = 1, nil
			ck.Envs[0].RNG = *ck.RNG
		}, "version 1"},
		{"v2-short-rng-state", func(ck *Checkpoint) { ck.RNG.State = ck.RNG.State[:3] }, "rng at 644 calls has 3 state words"},
		{"v2-state-too-few-calls", func(ck *Checkpoint) { ck.RNG.Calls = 5 }, "rng state with only 5 calls"},
		{"rng-calls-without-state", func(ck *Checkpoint) { ck.RNG.State = nil }, "rng at 644 calls has 0 state words"},
		{"env-calls-without-state", func(ck *Checkpoint) { ck.Envs[1].RNG.Calls = 1 << 40 }, "env 1 rng at 1099511627776 calls has 0 state words"},
		{"no-optimizer", func(ck *Checkpoint) { ck.Opt = nil }, "no optimizer ('O') section"},
		{"no-rng", func(ck *Checkpoint) { ck.RNG = nil }, "no rng ('R') section"},
		{"no-meta", func(ck *Checkpoint) { ck.Meta = nil }, "no meta ('M') section"},
		{"pricer-width-mismatch", func(ck *Checkpoint) { ck.Pricer.History[1] = ck.Pricer.History[1][:2] }, "pricer history row 1 has width 2, want 3"},
		{"pricer-obs-mismatch", func(ck *Checkpoint) { ck.Pricer.Obs = ck.Pricer.Obs[:5] }, "pricer observation has 5 values, want 6"},
		{"pricer-updates-exceed-rounds", func(ck *Checkpoint) { ck.Pricer.Updates = 41 }, "ran 41 updates over only 40 rounds"},
		{"pricer-zero-cadence", func(ck *Checkpoint) { ck.Pricer.UpdateEvery = 0 }, "pricer update cadence 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ck := fullCheckpoint(t)
			c.mutate(ck)
			err := ck.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate: %v, want an error containing %q", err, c.want)
			}
			if _, err := ck.AppendBinary(nil); err == nil {
				t.Fatal("AppendBinary encoded a checkpoint Validate refuses")
			}
		})
	}
	if err := fullCheckpoint(t).Validate(); err != nil {
		t.Fatalf("fullCheckpoint does not validate: %v", err)
	}
}
