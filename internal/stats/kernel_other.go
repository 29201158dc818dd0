//go:build !amd64

package stats

// useAVX2 is false off amd64: the scalar loop is the only kernel.
var useAVX2 = false

func minMaxAVX2(xs []float32, mn, mx float32) (lo, hi float32) {
	panic("stats: AVX2 kernel called off amd64")
}
