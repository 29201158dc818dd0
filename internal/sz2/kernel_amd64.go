package sz2

import "fedsz/internal/cpu"

// useAVX2 selects the four-lane regression kernels. It starts as
// cpu.AVX2, and only tests change it, to run both paths.
var useAVX2 = cpu.AVX2

// regressAVX2 is kernel.regress's loop over a block of len(view) values,
// a nonzero multiple of four, four lanes per step. It writes each code
// (0 for a value that fails a check) and returns the reconstruction of
// the last value and whether any lane failed; the caller appends the
// failed lanes' values to the outliers.
//
//go:noescape
func regressAVX2(codes []int32, view []float64, a0, a1, step, tol, eb, rad float64) (recon float64, failed bool)

// reconRegressAVX2 is the decoder's loop over a regression block of
// len(codes) values, a nonzero multiple of four, four lanes per step:
// out[i] = float32(a0 + a1·i + float64(codes[i]-off)·step). A lane whose
// code is 0 is written too; it reports whether there was one, and the
// caller overwrites those lanes with their outliers.
//
//go:noescape
func reconRegressAVX2(out []float32, codes []int32, a0, a1, step float64, off int32) (zero bool)

// fitBlocksAVX2 widens the four full blocks of src into view, row-major
// for the quantizer, and lanes, lane-major, and fits each block in its
// own lane, in fitLine's and regressionWins' order: fit holds every
// block's a0, a1 and residual sum bit for bit as they compute them, and
// its Lorenzo sum without the first term, the chain started at
// prev = x[0] (see regressionWinsLanes).
//
//go:noescape
func fitBlocksAVX2(view, lanes *[4 * BlockSize]float64, src *[4 * BlockSize]float32, fit *laneFits)
