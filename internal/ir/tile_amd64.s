#include "textflag.h"

// func tileAVX2(w, b, x, y []int32, in int, wb writeback)
//
// One dense layer over a tile (batch.go): for each of the len(b)
// neurons, the eight lanes' int64 dot products, eight at once, and the
// writeback of writeback.finish in registers. Lanes 0-3 are the four
// int64 elements of Y0, lanes 4-7 those of Y1. layerTile has checked
// every slice against in and len(b).
TEXT ·tileAVX2(SB), NOSPLIT, $0-128
	MOVQ w_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ b_len+32(FP), CX
	MOVQ x_base+48(FP), R8
	MOVQ y_base+72(FP), R9
	MOVQ in+96(FP), DX

	// The writeback's constants, one per int64 element: Y15 zero, X14
	// the shift count, Y13/Y12 the format's range, Y11/Y10 the bias
	// add's saturation.
	VPXOR        Y15, Y15, Y15
	VMOVQ        wb_frac+104(FP), X14
	MOVLQSX      wb_sat_lo+112(FP), AX
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13
	MOVLQSX      wb_sat_hi+116(FP), AX
	VMOVQ        AX, X12
	VPBROADCASTQ X12, Y12
	MOVLQSX      wb_act_lo+120(FP), AX
	VMOVQ        AX, X11
	VPBROADCASTQ X11, Y11
	MOVLQSX      wb_act_hi+124(FP), AX
	VMOVQ        AX, X10
	VPBROADCASTQ X10, Y10

	TESTQ CX, CX
	JZ    done

neuron:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ  R8, R10
	MOVQ  DX, R11
	TESTQ R11, R11
	JZ    writeback

dot:
	// acc[l] += w[i] * x[i*8+l]: VPMULDQ multiplies the low (signed)
	// dwords of each element into a full int64 product.
	VPBROADCASTD (SI), Y2
	VPMOVSXDQ    (R10), Y3
	VPMOVSXDQ    16(R10), Y4
	VPMULDQ      Y2, Y3, Y3
	VPMULDQ      Y2, Y4, Y4
	VPADDQ       Y3, Y0, Y0
	VPADDQ       Y4, Y1, Y1
	ADDQ         $4, SI
	ADDQ         $32, R10
	DECQ         R11
	JNZ          dot

writeback:
	// acc >> frac, arithmetic: with s = (acc < 0 ? -1 : 0),
	// ((acc ^ s) >>> frac) ^ s, since AVX2 has no VPSRAQ.
	VPCMPGTQ Y0, Y15, Y2
	VPCMPGTQ Y1, Y15, Y3
	VPXOR    Y2, Y0, Y0
	VPXOR    Y3, Y1, Y1
	VPSRLQ   X14, Y0, Y0
	VPSRLQ   X14, Y1, Y1
	VPXOR    Y2, Y0, Y0
	VPXOR    Y3, Y1, Y1

	// Saturate to the format's range: max with lo, then min with hi.
	VPCMPGTQ  Y0, Y13, Y2
	VPCMPGTQ  Y1, Y13, Y3
	VPBLENDVB Y2, Y13, Y0, Y0
	VPBLENDVB Y3, Y13, Y1, Y1
	VPCMPGTQ  Y12, Y0, Y2
	VPCMPGTQ  Y12, Y1, Y3
	VPBLENDVB Y2, Y12, Y0, Y0
	VPBLENDVB Y3, Y12, Y1, Y1

	// Bias add, then the saturation narrowed by the activation.
	VPBROADCASTD (DI), X4
	VPMOVSXDQ    X4, Y4
	VPADDQ       Y4, Y0, Y0
	VPADDQ       Y4, Y1, Y1
	VPCMPGTQ     Y0, Y11, Y2
	VPCMPGTQ     Y1, Y11, Y3
	VPBLENDVB    Y2, Y11, Y0, Y0
	VPBLENDVB    Y3, Y11, Y1, Y1
	VPCMPGTQ     Y10, Y0, Y2
	VPCMPGTQ     Y10, Y1, Y3
	VPBLENDVB    Y2, Y10, Y0, Y0
	VPBLENDVB    Y3, Y10, Y1, Y1

	// Pack the low dwords in lane order: [0 1 0 1 | 2 3 2 3] and
	// [4 5 4 5 | 6 7 6 7] blend to [0 1 4 5 | 2 3 6 7], then the middle
	// quadwords swap.
	VPSHUFD $0x88, Y0, Y0
	VPSHUFD $0x88, Y1, Y1
	VPBLENDD $0xcc, Y1, Y0, Y0
	VPERMQ  $0xd8, Y0, Y0
	VMOVDQU Y0, (R9)

	ADDQ $4, DI
	ADDQ $32, R9
	DECQ CX
	JNZ  neuron

done:
	VZEROUPPER
	RET
