#include "textflag.h"

// func minMaxAVX2(xs []float32, mn, mx float32) (lo, hi float32)
//
// MinMaxF32's loop, eight lanes per register and four registers each
// for the minimum and the maximum. MINPS and MAXPS return their second
// source where a lane is NaN, and where neither source is below (above)
// the other; with the accumulator there, each lane computes
// `if x < mn { mn = x }` and `if x > mx { mx = x }` as the loop does,
// so a NaN never enters. The lanes hold no NaN when they are combined.
TEXT ·minMaxAVX2(SB), NOSPLIT, $0-40
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	SHLQ $2, CX
	ADDQ SI, CX
	VBROADCASTSS mn+24(FP), Y0
	VMOVUPS Y0, Y1
	VMOVUPS Y0, Y2
	VMOVUPS Y0, Y3
	VBROADCASTSS mx+28(FP), Y4
	VMOVUPS Y4, Y5
	VMOVUPS Y4, Y6
	VMOVUPS Y4, Y7

loop:
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	VMOVUPS 64(SI), Y10
	VMOVUPS 96(SI), Y11
	VMINPS Y0, Y8, Y0
	VMAXPS Y4, Y8, Y4
	VMINPS Y1, Y9, Y1
	VMAXPS Y5, Y9, Y5
	VMINPS Y2, Y10, Y2
	VMAXPS Y6, Y10, Y6
	VMINPS Y3, Y11, Y3
	VMAXPS Y7, Y11, Y7
	ADDQ $128, SI
	CMPQ SI, CX
	JLT loop

	VMINPS Y1, Y0, Y0
	VMINPS Y3, Y2, Y2
	VMINPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMINPS X1, X0, X0
	VPERMILPS $0x4e, X0, X1
	VMINPS X1, X0, X0
	VPERMILPS $0xb1, X0, X1
	VMINPS X1, X0, X0
	VMOVSS X0, lo+32(FP)

	VMAXPS Y5, Y4, Y4
	VMAXPS Y7, Y6, Y6
	VMAXPS Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VMAXPS X5, X4, X4
	VPERMILPS $0x4e, X4, X5
	VMAXPS X5, X4, X4
	VPERMILPS $0xb1, X4, X5
	VMAXPS X5, X4, X4
	VMOVSS X4, hi+36(FP)
	VZEROUPPER
	RET
