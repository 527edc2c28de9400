package mat

// haveAVX2 reports whether this CPU and OS run the AVX2 kernels in
// simd_amd64.s: CPUID leaf 1 must report OSXSAVE and AVX, XGETBV must show
// the OS saving XMM and YMM state, and CPUID leaf 7 must report AVX2.
var haveAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmXmm  = 0b110   // XCR0: SSE and AVX state
	)
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmXmm != ymmXmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// haveFMA reports CPUID.1:ECX.FMA, which the tanh kernel needs beside
// AVX2: it fuses the multiply-adds that math.Exp fuses on such a CPU.
var haveFMA = cpuHasFMA()

func cpuHasFMA() bool {
	const fma = 1 << 12 // CPUID.1:ECX
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&fma != 0
}

//go:noescape
func gemmAccAVX2(c, a, b *float64, m, kk, n, ars, aks int)

//go:noescape
func mulABTAVX2(c, a, b, bias *float64, m, kk, n int)

//go:noescape
func adamAVX2(p, grad, m, v *float64, n int, scale, beta1, omb1, beta2, omb2, lr, c1, c2, eps float64, c1One bool)

//go:noescape
func tanhAVX2(dst, src *float64, n int)

//go:noescape
func tanhGradAVX2(dst, grad, out *float64, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
