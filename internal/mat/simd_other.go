//go:build !amd64

package mat

// Only amd64 has the SIMD kernels; everywhere else the scalar loops run.
const (
	haveAVX2 = false
	haveFMA  = false
)

func gemmAccAVX2(c, a, b *float64, m, kk, n, ars, aks int) {
	panic("mat: AVX2 kernel called on a non-amd64 build")
}

func mulABTAVX2(c, a, b, bias *float64, m, kk, n int) {
	panic("mat: AVX2 kernel called on a non-amd64 build")
}

func adamAVX2(p, grad, m, v *float64, n int, scale, beta1, omb1, beta2, omb2, lr, c1, c2, eps float64, c1One bool) {
	panic("mat: AVX2 kernel called on a non-amd64 build")
}

func tanhAVX2(dst, src *float64, n int) {
	panic("mat: AVX2 kernel called on a non-amd64 build")
}

func tanhGradAVX2(dst, grad, out *float64, n int) {
	panic("mat: AVX2 kernel called on a non-amd64 build")
}
