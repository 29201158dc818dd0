#include "textflag.h"

// Lane constants for the regression kernels.
DATA iota<>+0(SB)/8, $0x0000000000000000 // 0.0
DATA iota<>+8(SB)/8, $0x3ff0000000000000 // 1.0
DATA iota<>+16(SB)/8, $0x4000000000000000 // 2.0
DATA iota<>+24(SB)/8, $0x4008000000000000 // 3.0
GLOBL iota<>(SB), RODATA|NOPTR, $32

DATA fours<>+0(SB)/8, $0x4010000000000000
DATA fours<>+8(SB)/8, $0x4010000000000000
DATA fours<>+16(SB)/8, $0x4010000000000000
DATA fours<>+24(SB)/8, $0x4010000000000000
GLOBL fours<>(SB), RODATA|NOPTR, $32

DATA ones<>+0(SB)/8, $0x3ff0000000000000
DATA ones<>+8(SB)/8, $0x3ff0000000000000
DATA ones<>+16(SB)/8, $0x3ff0000000000000
DATA ones<>+24(SB)/8, $0x3ff0000000000000
GLOBL ones<>(SB), RODATA|NOPTR, $32

DATA halves<>+0(SB)/8, $0x3fe0000000000000
DATA halves<>+8(SB)/8, $0x3fe0000000000000
DATA halves<>+16(SB)/8, $0x3fe0000000000000
DATA halves<>+24(SB)/8, $0x3fe0000000000000
GLOBL halves<>(SB), RODATA|NOPTR, $32

DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
DATA absmask<>+8(SB)/8, $0x7fffffffffffffff
DATA absmask<>+16(SB)/8, $0x7fffffffffffffff
DATA absmask<>+24(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $32

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func regressAVX2(codes []int32, view []float64, a0, a1, step, tol, eb, rad float64) (recon float64, failed bool)
//
// Per lane, in kernel.regress's order and without FMA:
//   pred = a0 + a1·i
//   c    = quant.Round((x - pred) / step): round to nearest even, then
//          r + 2d where |d| = |y - r| ≥ 0.5 and d has y's sign (a tie
//          rounded toward zero)
//   r    = pred + float64(int(c))·step (c + 0 turns -0 into int's +0)
//   f    = float64(float32(r))
//   keep = |c| ≤ rad && !(|r - x| > tol) && !(|f - x| > eb)
// and the code is int32(c + rad + 1) for a kept lane, else 0.
TEXT ·regressAVX2(SB), NOSPLIT, $0-105
	MOVQ codes_base+0(FP), DI
	MOVQ view_base+24(FP), SI
	MOVQ view_len+32(FP), CX
	VBROADCASTSD a0+48(FP), Y15
	VBROADCASTSD a1+56(FP), Y14
	VBROADCASTSD step+64(FP), Y13
	VBROADCASTSD tol+72(FP), Y12
	VBROADCASTSD eb+80(FP), Y11
	VBROADCASTSD rad+88(FP), Y10
	VADDPD ones<>(SB), Y10, Y8 // rad + 1
	VMOVUPD iota<>(SB), Y9     // the lanes' indices
	XORQ AX, AX
	XORL BX, BX                // failed lanes, ORed

loop:
	VMOVUPD (SI)(AX*8), Y0     // x
	VMULPD Y9, Y14, Y1
	VADDPD Y1, Y15, Y1         // pred
	VSUBPD Y1, Y0, Y2
	VDIVPD Y13, Y2, Y2         // y
	VROUNDPD $0, Y2, Y3        // r, to nearest even
	VSUBPD Y3, Y2, Y4          // d = y - r
	VXORPD Y2, Y4, Y5          // sign bit set where d and y differ in sign
	VANDPD absmask<>(SB), Y4, Y6
	VCMPPD $0x1d, halves<>(SB), Y6, Y6 // |d| >= 0.5, ordered
	VANDNPD Y6, Y5, Y5         // a tie rounded toward zero
	VADDPD Y4, Y4, Y4
	VADDPD Y4, Y3, Y4          // r + 2d
	VBLENDVPD Y5, Y4, Y3, Y3   // c
	VXORPD Y2, Y2, Y2
	VADDPD Y2, Y3, Y4
	VMULPD Y13, Y4, Y4
	VADDPD Y4, Y1, Y4          // r = pred + c·step
	VCVTPD2PSY Y4, X5
	VCVTPS2PD X5, Y5           // f
	VSUBPD Y0, Y4, Y4
	VSUBPD Y0, Y5, Y6
	VANDPD absmask<>(SB), Y4, Y4
	VANDPD absmask<>(SB), Y6, Y6
	VCMPPD $0x1e, Y12, Y4, Y4  // |r - x| > tol, ordered
	VCMPPD $0x1e, Y11, Y6, Y6  // |f - x| > eb, ordered
	VORPD Y6, Y4, Y4
	VANDPD absmask<>(SB), Y3, Y6
	VCMPPD $0x12, Y10, Y6, Y6  // |c| <= rad, ordered
	VANDNPD Y6, Y4, Y4         // keep
	VBLENDVPD Y4, Y5, Y0, Y7   // recon: f where kept, else x
	VADDPD Y8, Y3, Y3
	VANDPD Y4, Y3, Y3          // c + rad + 1 where kept, else +0
	VCVTTPD2DQY Y3, X3
	VMOVDQU X3, (DI)(AX*4)
	VMOVMSKPD Y4, DX
	XORL $15, DX
	ORL DX, BX
	VADDPD fours<>(SB), Y9, Y9
	ADDQ $4, AX
	CMPQ AX, CX
	JB loop

	VEXTRACTF128 $1, Y7, X7
	VUNPCKHPD X7, X7, X7       // the last lane's recon
	VZEROUPPER
	MOVSD X7, recon+96(FP)
	TESTL BX, BX
	SETNE failed+104(FP)
	RET

// func reconRegressAVX2(out []float32, codes []int32, a0, a1, step float64, off int32) (zero bool)
//
// Per lane, as the decoder's loop computes a regression value:
//   out = float32(a0 + a1·i + float64(code - off)·step)
TEXT ·reconRegressAVX2(SB), NOSPLIT, $0-81
	MOVQ out_base+0(FP), DI
	MOVQ codes_base+24(FP), SI
	MOVQ codes_len+32(FP), CX
	VBROADCASTSD a0+48(FP), Y15
	VBROADCASTSD a1+56(FP), Y14
	VBROADCASTSD step+64(FP), Y13
	MOVL off+72(FP), DX
	VMOVD DX, X12
	VPBROADCASTD X12, X12
	VMOVUPD iota<>(SB), Y9
	VPXOR X11, X11, X11
	XORQ AX, AX
	XORL BX, BX                // lanes holding code 0, ORed

rloop:
	VMOVDQU (SI)(AX*4), X0
	VPCMPEQD X11, X0, X1
	VMOVMSKPS X1, DX
	ORL DX, BX
	VPSUBD X12, X0, X0
	VCVTDQ2PD X0, Y0
	VMULPD Y13, Y0, Y0
	VMULPD Y9, Y14, Y1
	VADDPD Y1, Y15, Y1         // pred
	VADDPD Y0, Y1, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS X0, (DI)(AX*4)
	VADDPD fours<>(SB), Y9, Y9
	ADDQ $4, AX
	CMPQ AX, CX
	JB rloop

	VZEROUPPER
	TESTL BX, BX
	SETNE zero+80(FP)
	RET

// The fit's constants at n = BlockSize = 128, each as fitLine computes
// it, exactly.
DATA fitconst<>+0(SB)/8, $0x4060000000000000  // n = 128
DATA fitconst<>+8(SB)/8, $0x40bfc00000000000  // sumX = n(n-1)/2 = 8128
DATA fitconst<>+16(SB)/8, $0x4175550000000000 // denom = n·sumXX - sumX² = 22368256
GLOBL fitconst<>(SB), RODATA|NOPTR, $24

// FITSTEP adds the values x at one position, lanes-major at off(R8), to
// the first pass's three chains, prev holding the position before.
#define FITSTEP(x, prev, off) \
	VMOVUPD x, off(R8); \
	VADDPD x, Y8, Y8; \
	VMULPD x, Y12, Y4; \
	VADDPD Y4, Y9, Y9; \
	VSUBPD prev, x, Y5; \
	VANDPD Y14, Y5, Y5; \
	VADDPD Y5, Y10, Y10; \
	VADDPD Y13, Y12, Y12

// RESIDSTEP adds one position's residuals, its values at off(R10), to
// the second pass's chain.
#define RESIDSTEP(off) \
	VMULPD Y12, Y6, Y0; \
	VADDPD Y0, Y7, Y0; \
	VMOVUPD off(R10), Y1; \
	VSUBPD Y0, Y1, Y1; \
	VANDPD Y14, Y1, Y1; \
	VADDPD Y1, Y5, Y5; \
	VADDPD Y13, Y12, Y12

// func fitBlocksAVX2(view, lanes *[4 * BlockSize]float64, src *[4 * BlockSize]float32, fit *laneFits)
//
// Lane j is block j of src. The first pass, per position i in order:
//   x     = float64(src[128j + i]), stored to view[128j + i] and, lane-
//           major, to lanes[4i + j] by a 4x4 transpose
//   sumY  = sumY + x
//   sumXY = sumXY + float64(i)·x, a multiply then an add (never FMA)
//   L0    = L0 + |x - prev|; prev = x, from prev = x at i = 0
// then fitLine's a1 = (n·sumXY - sumX·sumY)/denom and
// a0 = (sumY - a1·sumX)/n, and the second pass, per position in order,
// regressionWins' regress = regress + |x - (a0 + a1·i)|.
TEXT ·fitBlocksAVX2(SB), NOSPLIT, $0-32
	MOVQ view+0(FP), DI
	MOVQ lanes+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ fit+24(FP), R9
	MOVQ R8, R10               // lanes, for the second pass
	VXORPD Y8, Y8, Y8          // sumY
	VXORPD Y9, Y9, Y9          // sumXY
	VXORPD Y10, Y10, Y10       // L0
	VXORPD Y12, Y12, Y12       // i, in every lane
	VMOVUPD ones<>(SB), Y13
	VMOVUPD absmask<>(SB), Y14
	XORQ AX, AX

fitloop:
	VCVTPS2PD (SI)(AX*4), Y0   // block 0, values i..i+3
	VCVTPS2PD 512(SI)(AX*4), Y1
	VCVTPS2PD 1024(SI)(AX*4), Y2
	VCVTPS2PD 1536(SI)(AX*4), Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 1024(DI)(AX*8)
	VMOVUPD Y2, 2048(DI)(AX*8)
	VMOVUPD Y3, 3072(DI)(AX*8)
	VUNPCKLPD Y1, Y0, Y4       // x0[i] x1[i] x0[i+2] x1[i+2]
	VUNPCKHPD Y1, Y0, Y5       // x0[i+1] x1[i+1] x0[i+3] x1[i+3]
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0 // position i, blocks 0..3
	VPERM2F128 $0x20, Y7, Y5, Y1 // i+1
	VPERM2F128 $0x31, Y6, Y4, Y2 // i+2
	VPERM2F128 $0x31, Y7, Y5, Y3 // i+3
	TESTQ AX, AX
	JNZ fitsteps
	VMOVAPD Y0, Y11            // prev = x at i = 0

fitsteps:
	FITSTEP(Y0, Y11, 0)
	FITSTEP(Y1, Y0, 32)
	FITSTEP(Y2, Y1, 64)
	FITSTEP(Y3, Y2, 96)
	VMOVAPD Y3, Y11
	ADDQ $128, R8
	ADDQ $4, AX
	CMPQ AX, $128
	JB fitloop

	VBROADCASTSD fitconst<>+0(SB), Y0  // n
	VBROADCASTSD fitconst<>+8(SB), Y1  // sumX
	VBROADCASTSD fitconst<>+16(SB), Y2 // denom
	VMULPD Y9, Y0, Y3          // n·sumXY
	VMULPD Y8, Y1, Y4          // sumX·sumY
	VSUBPD Y4, Y3, Y3
	VDIVPD Y2, Y3, Y6          // a1
	VMULPD Y6, Y1, Y4          // a1·sumX
	VSUBPD Y4, Y8, Y4
	VDIVPD Y0, Y4, Y7          // a0
	VMOVUPD Y7, 0(R9)
	VMOVUPD Y6, 32(R9)
	VMOVUPD Y10, 96(R9)

	VXORPD Y5, Y5, Y5          // regress
	VXORPD Y12, Y12, Y12
	XORQ AX, AX

residloop:
	RESIDSTEP(0)
	RESIDSTEP(32)
	RESIDSTEP(64)
	RESIDSTEP(96)
	ADDQ $128, R10
	ADDQ $4, AX
	CMPQ AX, $128
	JB residloop

	VMOVUPD Y5, 64(R9)
	VZEROUPPER
	RET
