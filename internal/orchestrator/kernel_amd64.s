#include "textflag.h"

// The three loops of kernel.go, four lanes per step, without FMA. Each
// instruction names its sources in the order the compiled scalar loop
// does (Go's MULSD, ADDSD and DIVSD put the value the loop reads first
// in the destination), since where both sources are NaN, SSE and AVX
// return the first one's payload.

// func addScaledAVX2(sum []float64, data []float32, w float64)
//
// sum[j] += float64(w * float64(data[j])): float64(v)·w, then that
// product + sum[j].
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ sum_base+0(FP), DI
	MOVQ data_base+24(FP), SI
	MOVQ data_len+32(FP), CX
	VBROADCASTSD w+48(FP), Y15
	XORQ AX, AX

scaled:
	VCVTPS2PD (SI)(AX*4), Y0
	VMULPD Y15, Y0, Y0
	VADDPD (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT scaled
	VZEROUPPER
	RET

// func addRawAVX2(sum []float64, v []float64)
//
// sum[j] += v[j]: sum[j] + v[j].
TEXT ·addRawAVX2(SB), NOSPLIT, $0-48
	MOVQ sum_base+0(FP), DI
	MOVQ v_base+24(FP), SI
	MOVQ v_len+32(FP), CX
	XORQ AX, AX

raw:
	VMOVUPD (DI)(AX*8), Y0
	VADDPD (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT raw
	VZEROUPPER
	RET

// func divideAVX2(d []float32, sum []float64, total float64)
//
// d[j] = float32(sum[j] / total): a divide, never a reciprocal, then
// one rounding to float32.
TEXT ·divideAVX2(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), DI
	MOVQ sum_base+24(FP), SI
	MOVQ sum_len+32(FP), CX
	VBROADCASTSD total+48(FP), Y15
	XORQ AX, AX

div:
	VMOVUPD (SI)(AX*8), Y0
	VDIVPD Y15, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT div
	VZEROUPPER
	RET
