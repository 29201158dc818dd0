package orchestrator

import "fedsz/internal/cpu"

// useAVX2 selects the four-lane kernels. It starts as cpu.AVX2, off
// under the race detector, which does not see memory that assembly
// touches and so would miss a race on the shared sums; only tests
// change it, to run both paths.
var useAVX2 = cpu.AVX2 && !raceEnabled

// addScaledAVX2 is addScaled's loop over len(data) elements, a nonzero
// multiple of four, with len(sum) ≥ len(data).
//
//go:noescape
func addScaledAVX2(sum []float64, data []float32, w float64)

// addRawAVX2 is addRaw's loop over len(v) elements, a nonzero multiple
// of four, with len(sum) ≥ len(v).
//
//go:noescape
func addRawAVX2(sum, v []float64)

// divideAVX2 is divide's loop over len(sum) elements, a nonzero multiple
// of four, with len(d) ≥ len(sum).
//
//go:noescape
func divideAVX2(d []float32, sum []float64, total float64)
