package cpu

// hasAVX2 checks OSXSAVE and AVX (CPUID.1:ECX bits 27–28), XMM and YMM
// state in XCR0 (bits 1–2), and AVX2 (CPUID.7.0:EBX bit 5).
func hasAVX2() bool {
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
