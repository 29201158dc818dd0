//go:build !amd64

package orchestrator

// useAVX2 is false off amd64: the scalar loops are the only kernels.
var useAVX2 = false

func addScaledAVX2(sum []float64, data []float32, w float64) {
	panic("orchestrator: AVX2 kernel called off amd64")
}

func addRawAVX2(sum, v []float64) {
	panic("orchestrator: AVX2 kernel called off amd64")
}

func divideAVX2(d []float32, sum []float64, total float64) {
	panic("orchestrator: AVX2 kernel called off amd64")
}
