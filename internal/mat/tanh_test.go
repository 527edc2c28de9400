package mat

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"testing"
)

// tanhExpDiscriminator is an input whose tanh bits depend on which path
// math.Exp takes: the fused one (AVX and FMA reported) gives
// tanhFusedBits, the unfused one tanhUnfusedBits.
const (
	tanhExpDiscriminator = 0.7253374879437113
	tanhFusedBits        = 0x3fe3d8b7484f568b
	tanhUnfusedBits      = 0x3fe3d8b7484f568a
)

// tanhBoundaries are math/tanh.go's branch points and their neighbours,
// some ulps to each side, with both signs.
func tanhBoundaries() []float64 {
	var xs []float64
	for _, b := range []float64{0.625, tanhLarge} {
		lo, hi := b, b
		xs = append(xs, b, -b)
		for i := 0; i < 64; i++ {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			xs = append(xs, lo, -lo, hi, -hi)
		}
	}
	return xs
}

// tanhInputs returns more than a million inputs: every valueMixes fill,
// ±Inf, NaN, ±0 and subnormals, the branch boundaries and their
// neighbours, the init table, magnitudes log-uniform up to 1e300, a dense
// sweep of the range where tanh is neither ±1 nor its rational branch,
// and arbitrary bit patterns.
func tanhInputs() []float64 {
	rng := rand.New(rand.NewSource(19))
	var xs []float64
	for _, mix := range valueMixes {
		buf := make([]float64, 50000)
		mix.fill(rng, buf)
		xs = append(xs, buf...)
	}
	xs = append(xs, math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
		5e-324, -5e-324, math.SmallestNonzeroFloat64*1000, 0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64)
	xs = append(xs, tanhBoundaries()...)
	xs = append(xs, tanhCheckInputs[:]...)
	for i := 0; i < 300000; i++ {
		x := math.Pow(10, rng.Float64()*620-320) // 1e-320 … 1e300
		if rng.Intn(2) == 0 {
			x = -x
		}
		xs = append(xs, x)
	}
	for i := 0; i < 300000; i++ {
		xs = append(xs, (rng.Float64()*2-1)*25)
	}
	for i := 0; i < 200000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	return xs
}

// TestTanhToBitwise compares TanhTo with math.Tanh bit for bit, NaN only
// as NaN, over tanhInputs on both kernel paths: in one call over the
// whole set, in place, and in windows of every length from 0 to 9 at
// every offset mod 4.
func TestTanhToBitwise(t *testing.T) {
	xs := tanhInputs()
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = math.Tanh(x)
	}
	forEachKernelPath(t, func(t *testing.T) {
		if useAVX2 && !tanhKernelOK {
			t.Log("tanh kernel not selected in this process: TanhTo is the math.Tanh loop")
		}
		got := make([]float64, len(xs))
		TanhTo(got, xs)
		requireSameBits(t, "TanhTo", got, want)

		copy(got, xs)
		TanhTo(got, got)
		requireSameBits(t, "TanhTo in place", got, want)

		for n := 0; n <= 9; n++ {
			for off := 0; off < 4; off++ {
				for i := off; i+n <= 4096; i += 4 + n {
					dst := got[i+1 : i+1+n] // dst and src misaligned against each other
					TanhTo(dst, xs[i:i+n])
					requireSameBits(t, fmt.Sprintf("TanhTo length %d at %d", n, i), dst, want[i:i+n])
				}
			}
		}
	})
}

// TestTanhToSelection checks the kernel selection. Without AVX2 and FMA
// (every non-amd64 build included) it must be off. With them it must
// follow the path math.Exp actually takes in this process, read from the
// bits math.Tanh gives tanhExpDiscriminator: on with the fused
// exponential, off with the unfused one.
func TestTanhToSelection(t *testing.T) {
	bits := math.Float64bits(math.Tanh(tanhExpDiscriminator))
	switch {
	case !haveAVX2 || !haveFMA:
		t.Logf("no AVX2 and FMA; tanh kernel selected: %v", tanhKernelOK)
		if tanhKernelOK {
			t.Error("tanh kernel selected on a CPU without AVX2 and FMA")
		}
	case bits == tanhUnfusedBits:
		t.Logf("math.Exp takes its unfused path; tanh kernel selected: %v", tanhKernelOK)
		if tanhKernelOK {
			t.Error("tanh kernel selected, but math.Exp does not fuse: TanhTo would differ from math.Tanh")
		}
	case bits == tanhFusedBits:
		t.Logf("math.Exp takes its fused path; tanh kernel selected: %v", tanhKernelOK)
		if !tanhKernelOK {
			t.Error("tanh kernel not selected, though CPUID shows AVX2 and FMA and math.Exp fuses")
		}
	default:
		t.Fatalf("math.Tanh(%v) = %#016x, neither the fused nor the unfused exponential's bits", tanhExpDiscriminator, bits)
	}
}

// TestTanhToFallbackWithoutFMA re-runs the bit-equality and selection
// tests in a child process under GODEBUG=cpu.fma=off, where math.Exp
// takes its unfused path: the init check must leave the kernel out, and
// TanhTo must still equal math.Tanh. A build whose GOAMD64 level puts FMA
// in the baseline cannot run that child: the runtime rejects the setting.
func TestTanhToFallbackWithoutFMA(t *testing.T) {
	if !haveAVX2 || !haveFMA {
		t.Skip("no AVX2 and FMA: the kernel is never selected")
	}
	if fmaInBaseline {
		t.Skip("FMA is in this build's GOAMD64 baseline: the runtime rejects GODEBUG=cpu.fma=off")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^(TestTanhToBitwise|TestTanhToSelection)$", "-test.v", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
	for _, want := range []string{
		"--- PASS: TestTanhToBitwise",
		"math.Exp takes its unfused path; tanh kernel selected: false",
		"--- PASS: TestTanhToSelection",
	} {
		if !bytes.Contains(out, []byte(want)) {
			t.Fatalf("child output lacks %q:\n%s", want, out)
		}
	}
}

// FuzzTanhTo feeds arbitrary float64 bit patterns (eight little-endian
// bytes each) through TanhTo at an arbitrary start offset, out of place
// and in place, and compares every element with math.Tanh.
func FuzzTanhTo(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(tanhCheckInputs[:]...), uint8(0)) // the discriminators, every branch
	f.Add(seed(tanhBoundaries()...), uint8(3))
	f.Add(seed(math.Inf(1), math.NaN(), math.Copysign(0, -1), 1e-310, -1e300), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		xs = xs[int(off)%(len(xs)+1):]
		got := make([]float64, len(xs))
		TanhTo(got, xs)
		for i, x := range xs {
			if want := math.Tanh(x); !sameBits(got[i], want) {
				t.Fatalf("TanhTo(%v = %#016x) = %#016x, math.Tanh gives %#016x",
					x, math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
		TanhTo(xs, xs)
		for i := range xs {
			if !sameBits(xs[i], got[i]) {
				t.Fatalf("in-place TanhTo element %d = %#016x, out of place %#016x",
					i, math.Float64bits(xs[i]), math.Float64bits(got[i]))
			}
		}
	})
}
