package sz2

// useAVX2 selects the four-lane regression kernels. It is set once, from
// CPUID and XGETBV, and only tests change it, to run both paths.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports AVX2 with the YMM state enabled by the OS:
// OSXSAVE and AVX (CPUID.1:ECX bits 27–28), XMM and YMM state in XCR0
// (bits 1–2), and AVX2 (CPUID.7.0:EBX bit 5).
func cpuHasAVX2() bool {
	const osxsaveAVX = 1<<27 | 1<<28
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsaveAVX != osxsaveAVX {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0.
func xgetbv0() uint32

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
