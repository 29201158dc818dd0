//go:build !amd64

package sz2

// useAVX2 is false off amd64: the scalar loops are the only kernels.
var useAVX2 = false

func regressAVX2(codes []int32, view []float64, a0, a1, step, tol, eb, rad float64) (recon float64, failed bool) {
	panic("sz2: AVX2 kernel called off amd64")
}

func reconRegressAVX2(out []float32, codes []int32, a0, a1, step float64, off int32) (zero bool) {
	panic("sz2: AVX2 kernel called off amd64")
}
