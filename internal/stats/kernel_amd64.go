package stats

import "fedsz/internal/cpu"

// useAVX2 selects MinMaxF32's eight-lane kernel. It starts as cpu.AVX2,
// off under the race detector, which does not see memory that assembly
// reads; only tests change it, to run both paths.
var useAVX2 = cpu.AVX2 && !raceEnabled

// minMaxAVX2 is MinMaxF32's loop over len(xs) elements, a nonzero
// multiple of 32, from the running minimum mn and maximum mx, neither
// NaN. It skips NaNs as the loop does and returns the same values, but
// of two zeros it may keep the other sign: the caller settles a zero.
//
//go:noescape
func minMaxAVX2(xs []float32, mn, mx float32) (lo, hi float32)
