#include "textflag.h"

// The AVX2 kernels behind MatMul, TMatMul, MatMulT, Adam.Step and the
// elementwise steps of training (act.go, tensor.go). Every lane computes
// one output element with the very operations, in the very order, of
// the portable Go code it replaces, so the results are the same bits.
// FMA only where that Go code calls math.FMA, in exp's reduction and
// polynomial (exp.go): the Go compiler does not fuse a product into a
// sum on amd64 at the default GOAMD64=v1, and a fused one rounds once
// where the Go code rounds twice.

// tailmask<>+(4-r)*8 is the mask of a chunk's first r lanes, r in 0..4.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// TAILMASK loads into Y15 the mask of the first n mod 4 lanes, n in
// reg; it clobbers AX and R12.
#define TAILMASK(reg) \
	MOVQ        reg, AX; \
	ANDQ        $3, AX; \
	MOVQ        $4, R12; \
	SUBQ        AX, R12; \
	LEAQ        tailmask<>(SB), AX; \
	VMOVDQU     (AX)(R12*8), Y15

// mulAddAVX2 runs a row in blocks of up to 32 columns: eight full chunks
// of four, accumulated in Y6-Y13, and in the row's last block a partial
// chunk of n mod 4 columns in Y14 under the mask Y15. CX holds the
// block's columns in full chunks (a multiple of 4), R11 the partial
// chunk's. Y0-Y3 hold a depth group's four broadcast a values, Y4 and Y5
// are scratch.

// FULL(c, off, acc, done, op) runs op(off, acc) for chunk c, at byte
// offset off, if the block has it, and otherwise jumps to done.
#define FULL(c, off, acc, done, op) \
	CMPQ CX, $(4*c); \
	JBE  done; \
	op(off, acc)

// EACH(done, op) runs op over the block's full chunks and then goes on
// at done.
#define EACH(done, op) \
	FULL(0, 0, Y6, done, op); \
	FULL(1, 32, Y7, done, op); \
	FULL(2, 64, Y8, done, op); \
	FULL(3, 96, Y9, done, op); \
	FULL(4, 128, Y10, done, op); \
	FULL(5, 160, Y11, done, op); \
	FULL(6, 192, Y12, done, op); \
	FULL(7, 224, Y13, done, op)

// LOADACC and STOREACC move a chunk of d, at R10, to and from its
// accumulator.
#define LOADACC(off, acc) VMOVUPD off(R10), acc
#define STOREACC(off, acc) VMOVUPD acc, off(R10)

// GROUPSUM adds ((a0·b0 + a1·b1) + a2·b2) + a3·b3 to a chunk's
// accumulator: the a values broadcast in Y0-Y3, the b rows at AX, AX+R8,
// R10 and R10+R8.
#define GROUPSUM(off, acc) \
	VMULPD off(AX), Y0, Y4; \
	VMULPD off(AX)(R8*1), Y1, Y5; \
	VADDPD Y5, Y4, Y4; \
	VMULPD off(R10), Y2, Y5; \
	VADDPD Y5, Y4, Y4; \
	VMULPD off(R10)(R8*1), Y3, Y5; \
	VADDPD Y5, Y4, Y4; \
	VADDPD Y4, acc, acc

// SINGLESUM adds a·b, a broadcast in Y0 and b at AX, to a chunk's
// accumulator.
#define SINGLESUM(off, acc) \
	VMULPD off(AX), Y0, Y4; \
	VADDPD Y4, acc, acc

// func mulAddAVX2(d, a, b []float64, rows, k, n, aRow, aK int)
//
// The accumulators hold d's elements across the whole depth loop: the
// portable loop writes each sum back to d and reads it again for the
// next group, which is the same value, so one load and one store per
// block give the same bits.
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-112
	MOVQ d_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ n+88(FP), R8
	MOVQ aK+104(FP), R9
	TAILMASK(R8)
	SHLQ $3, R8 // b's and d's row stride in bytes
	SHLQ $3, R9 // a's depth stride in bytes
	CMPQ rows+72(FP), $0
	JEQ  madone

marow:
	XORQ BX, BX // the block's column offset in bytes

mablock:
	MOVQ n+88(FP), R12
	SHLQ $3, R12
	SUBQ BX, R12 // bytes left in the row
	JZ   manextrow
	CMPQ R12, $(36*8)
	JB   malast
	MOVQ $32, CX
	XORQ R11, R11
	JMP  maload

malast:
	SHRQ $3, R12
	MOVQ R12, R11
	ANDQ $3, R11
	MOVQ R12, CX
	ANDQ $-4, CX

maload:
	LEAQ (DI)(BX*1), R10
	EACH(maloaded, LOADACC)

maloaded:
	TESTQ R11, R11
	JZ    madepth
	LEAQ  (R10)(CX*8), R12
	VMASKMOVPD (R12), Y15, Y14

madepth:
	MOVQ SI, R14
	LEAQ (DX)(BX*1), AX
	MOVQ k+80(FP), R13
	SHRQ $2, R13
	JZ   masingles

magroup:
	// Skip the group when its four a values are all ±0.
	MOVQ (R14), R10
	ORQ  (R14)(R9*1), R10
	LEAQ (R14)(R9*2), R12
	ORQ  (R12), R10
	ORQ  (R12)(R9*1), R10
	SHLQ $1, R10
	JZ   magnext
	VBROADCASTSD (R14), Y0
	VBROADCASTSD (R14)(R9*1), Y1
	VBROADCASTSD (R12), Y2
	VBROADCASTSD (R12)(R9*1), Y3
	LEAQ         (AX)(R8*2), R10
	EACH(magtail, GROUPSUM)

magtail:
	TESTQ R11, R11
	JZ    magnext
	LEAQ  (AX)(CX*8), R12
	LEAQ  (R10)(CX*8), R10
	VMASKMOVPD (R12), Y15, Y4
	VMULPD     Y4, Y0, Y4
	VMASKMOVPD (R12)(R8*1), Y15, Y5
	VMULPD     Y5, Y1, Y5
	VADDPD     Y5, Y4, Y4
	VMASKMOVPD (R10), Y15, Y5
	VMULPD     Y5, Y2, Y5
	VADDPD     Y5, Y4, Y4
	VMASKMOVPD (R10)(R8*1), Y15, Y5
	VMULPD     Y5, Y3, Y5
	VADDPD     Y5, Y4, Y4
	VADDPD     Y4, Y14, Y14

magnext:
	LEAQ (R14)(R9*4), R14
	LEAQ (AX)(R8*4), AX
	DECQ R13
	JNZ  magroup

masingles:
	MOVQ k+80(FP), R13
	ANDQ $3, R13
	JZ   mastore

masingle:
	MOVQ (R14), R10
	SHLQ $1, R10
	JZ   masnext
	VBROADCASTSD (R14), Y0
	EACH(mastail, SINGLESUM)

mastail:
	TESTQ R11, R11
	JZ    masnext
	LEAQ  (AX)(CX*8), R12
	VMASKMOVPD (R12), Y15, Y4
	VMULPD     Y4, Y0, Y4
	VADDPD     Y4, Y14, Y14

masnext:
	ADDQ R9, R14
	ADDQ R8, AX
	DECQ R13
	JNZ  masingle

mastore:
	LEAQ (DI)(BX*1), R10
	EACH(mastored, STOREACC)

mastored:
	LEAQ  (BX)(CX*8), BX
	TESTQ R11, R11
	JZ    mablock
	LEAQ  (R10)(CX*8), R12
	VMASKMOVPD Y14, Y15, (R12)

manextrow:
	MOVQ aRow+96(FP), R10
	LEAQ (SI)(R10*8), SI
	ADDQ R8, DI
	DECQ rows+72(FP)
	JNZ  marow

madone:
	VZEROUPPER
	RET

// func matMulTAVX2(d, a, b []float64, rows, k, n int)
//
// Four columns j at a time: the four rows j..j+3 of b are transposed
// into a k×4 panel at the bottom of the frame, lane l of panel row p
// holding b[(j+l)*k+p] (lanes past n repeat the last row and are never
// stored). Then each row of a runs one ascending dot product per lane
// from +0, four rows of a at once so that four independent sums keep
// the adder busy.
TEXT ·matMulTAVX2(SB), $8192-96
	MOVQ d_base+0(FP), DI
	MOVQ b_base+48(FP), DX
	MOVQ k+80(FP), R8
	SHLQ $3, R8          // a's and b's row stride in bytes
	MOVQ n+88(FP), CX    // columns left
	LEAQ (CX*8), R10     // d's row stride in bytes
	TAILMASK(CX)
	XORQ BX, BX          // the chunk's column offset in bytes

mtchunk:
	CMPQ CX, $0
	JLE  mtdone

	// The panel's four source rows.
	MOVQ DX, AX
	LEAQ (AX)(R8*1), R12
	LEAQ (AX)(R8*2), R13
	LEAQ (R12)(R8*2), R14
	CMPQ CX, $3
	JA   mtpanel
	MOVQ R13, R14
	JE   mtpanel
	MOVQ R12, R13
	MOVQ R12, R14
	CMPQ CX, $2
	JE   mtpanel
	MOVQ AX, R12
	MOVQ AX, R13
	MOVQ AX, R14

mtpanel:
	MOVQ SP, R11
	XORQ R9, R9

mtprow:
	VMOVSD      (AX)(R9*8), X1
	VMOVHPD     (R12)(R9*8), X1, X1
	VMOVSD      (R13)(R9*8), X2
	VMOVHPD     (R14)(R9*8), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VMOVUPD     Y1, (R11)
	ADDQ        $32, R11
	INCQ        R9
	CMPQ        R9, k+80(FP)
	JNE         mtprow

	MOVQ a_base+24(FP), SI
	LEAQ (DI)(BX*1), R12 // d at the row's chunk
	MOVQ rows+72(FP), R11
	CMPQ R11, $4
	JB   mtrowtail

mtquad:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	LEAQ   (SI)(R8*2), R13
	MOVQ   SP, R14
	MOVQ   k+80(FP), R9

mtqdot:
	VMOVUPD      (R14), Y4
	VBROADCASTSD (AX), Y5
	VBROADCASTSD (AX)(R8*1), Y6
	VBROADCASTSD (R13), Y7
	VBROADCASTSD (R13)(R8*1), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, AX
	ADDQ         $8, R13
	ADDQ         $32, R14
	DECQ         R9
	JNZ          mtqdot

	LEAQ (R12)(R10*2), AX
	CMPQ CX, $4
	JB   mtqmasked
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, (R12)(R10*1)
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, (AX)(R10*1)
	JMP     mtqnext

mtqmasked:
	VMASKMOVPD Y0, Y15, (R12)
	VMASKMOVPD Y1, Y15, (R12)(R10*1)
	VMASKMOVPD Y2, Y15, (AX)
	VMASKMOVPD Y3, Y15, (AX)(R10*1)

mtqnext:
	LEAQ (R12)(R10*4), R12
	LEAQ (SI)(R8*4), SI
	SUBQ $4, R11
	CMPQ R11, $4
	JAE  mtquad

mtrowtail:
	TESTQ R11, R11
	JZ    mtnextchunk

mtrow:
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   SP, R14
	MOVQ   k+80(FP), R9

mtdot:
	VBROADCASTSD (AX), Y5
	VMULPD       (R14), Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, AX
	ADDQ         $32, R14
	DECQ         R9
	JNZ          mtdot

	CMPQ CX, $4
	JB   mtrmasked
	VMOVUPD Y0, (R12)
	JMP     mtrnext

mtrmasked:
	VMASKMOVPD Y0, Y15, (R12)

mtrnext:
	ADDQ R10, R12
	ADDQ R8, SI
	DECQ R11
	JNZ  mtrow

mtnextchunk:
	LEAQ (DX)(R8*4), DX
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  mtchunk

mtdone:
	VZEROUPPER
	RET

// func adamAVX2(w, m, v, g []float64, s *Adam)
//
// Adam.Step over len(g), a multiple of 4, parameters: with the Adam's
// fields broadcast, each lane computes
//
//	m = β1·m + (1−β1)·g
//	v = β2·v + ((1−β2)·g)·g
//	w = w − (lr·(m/bc1)) / (√(v/bc2) + ε)
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ m_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ g_base+72(FP), R8
	MOVQ g_len+80(FP), CX
	MOVQ s+96(FP), AX
	VBROADCASTSD 0(AX), Y8   // β1
	VBROADCASTSD 8(AX), Y9   // β2
	VBROADCASTSD 16(AX), Y10 // 1−β1
	VBROADCASTSD 24(AX), Y11 // 1−β2
	VBROADCASTSD 32(AX), Y12 // lr
	VBROADCASTSD 40(AX), Y13 // bc1
	VBROADCASTSD 48(AX), Y14 // bc2
	VBROADCASTSD 56(AX), Y15 // ε
	SHRQ $2, CX
	JZ   adone

aloop:
	VMOVUPD (R8), Y0
	VMULPD  (SI), Y8, Y1
	VMULPD  Y0, Y10, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (SI)
	VMULPD  (DX), Y9, Y2
	VMULPD  Y0, Y11, Y3
	VMULPD  Y0, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, (DX)
	VDIVPD  Y13, Y1, Y1
	VDIVPD  Y14, Y2, Y2
	VSQRTPD Y2, Y2
	VADDPD  Y15, Y2, Y2
	VMULPD  Y1, Y12, Y1
	VDIVPD  Y2, Y1, Y1
	VMOVUPD (DI), Y3
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R8
	DECQ    CX
	JNZ     aloop

adone:
	VZEROUPPER
	RET

// The elementwise kernels. Each runs four elements per ymm; a group
// short of four runs under the mask Y15 of its first lanes, loaded and
// stored with VMASKMOVPD, so the lanes past the end read +0 and are
// never written.

// expc<> holds each constant of exp, tanh and the elementwise kernels
// four times over, one ymm, so an instruction can take it from memory.
#define CONST4(off, val) \
	DATA expc<>+(off)(SB)/8, val; \
	DATA expc<>+(off+8)(SB)/8, val; \
	DATA expc<>+(off+16)(SB)/8, val; \
	DATA expc<>+(off+24)(SB)/8, val

CONST4(0, $1.4426950408889634073599246810018920)       // log2(e)
CONST4(32, $0.69314718055966295651160180568695068359375) // upper half of ln 2
CONST4(64, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(96, $0.0625)
CONST4(128, $2.4801587301587301587e-5) // 1/8!
CONST4(160, $1.9841269841269841270e-4)
CONST4(192, $1.3888888888888888889e-3)
CONST4(224, $8.3333333333333333333e-3)
CONST4(256, $4.1666666666666666667e-2)
CONST4(288, $1.6666666666666666667e-1) // 1/3!
CONST4(320, $0.5)
CONST4(352, $1.0)
CONST4(384, $2.0)
CONST4(416, $7.09782712893384e+02)     // exp overflows above it
CONST4(448, $-1022.0)                  // the fast path's least k
CONST4(480, $0x8000000000000000)       // the sign bit
CONST4(512, $0x7fffffffffffffff)       // all bits but the sign
CONST4(544, $4.4014845965556527147994e+01) // tanh rounds to ±1 above it
CONST4(576, $0.625)
CONST4(608, $-9.64399179425052238628e-1)
CONST4(640, $-9.92877231001918586564e1)
CONST4(672, $-1.61468768441708447952e3)
CONST4(704, $1.12811678491632931402e2)
CONST4(736, $2.23548839060100448583e3)
CONST4(768, $4.84406305325125486048e3)
DATA expc<>+800(SB)/4, $1023 // the exponent bias, four int32
DATA expc<>+804(SB)/4, $1023
DATA expc<>+808(SB)/4, $1023
DATA expc<>+812(SB)/4, $1023
GLOBL expc<>(SB), RODATA|NOPTR, $816

#define LOG2E expc<>+0(SB)
#define LN2HI expc<>+32(SB)
#define LN2LO expc<>+64(SB)
#define SIXTEENTH expc<>+96(SB)
#define EXPC8 expc<>+128(SB)
#define EXPC7 expc<>+160(SB)
#define EXPC6 expc<>+192(SB)
#define EXPC5 expc<>+224(SB)
#define EXPC4 expc<>+256(SB)
#define EXPC3 expc<>+288(SB)
#define HALF expc<>+320(SB)
#define ONE expc<>+352(SB)
#define TWO expc<>+384(SB)
#define EXPOVERFLOW expc<>+416(SB)
#define KMIN expc<>+448(SB)
#define SIGNBIT expc<>+480(SB)
#define ABSMASK expc<>+512(SB)
#define TANHSAT expc<>+544(SB)
#define TANHMID expc<>+576(SB)
#define TANHP0 expc<>+608(SB)
#define TANHP1 expc<>+640(SB)
#define TANHP2 expc<>+672(SB)
#define TANHQ0 expc<>+704(SB)
#define TANHQ1 expc<>+736(SB)
#define TANHQ2 expc<>+768(SB)
#define EXPBIAS expc<>+800(SB)

// EXP4 sets each lane of Y0 to Exp of it, the Go reference's fast path
// step for step, and each lane of Y3 to all ones where that lane would
// leave the fast path: NaN, +Inf or above the overflow threshold, or k
// (the power of two that scales the result) below -1022, which also
// catches -Inf and the subnormal and zero results. Such a lane's Y0 is
// garbage. The one exit not tested for is k = 1024, x within 0.35 below
// the threshold: its scale is the exponent field 0x7ff, +Inf, and the
// product +Inf is the reference's answer. It clobbers Y1, Y2 and Y8.
#define EXP4 \
	VCMPPD       $6, EXPOVERFLOW, Y0, Y3; \
	VMULPD       LOG2E, Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VCMPPD       $1, KMIN, Y1, Y8; \
	VORPD        Y8, Y3, Y3; \
	VFNMADD231PD LN2HI, Y1, Y0; \
	VFNMADD231PD LN2LO, Y1, Y0; \
	VMULPD       SIXTEENTH, Y0, Y0; \
	VMOVUPD      EXPC8, Y1; \
	VFMADD213PD  EXPC7, Y0, Y1; \
	VFMADD213PD  EXPC6, Y0, Y1; \
	VFMADD213PD  EXPC5, Y0, Y1; \
	VFMADD213PD  EXPC4, Y0, Y1; \
	VFMADD213PD  EXPC3, Y0, Y1; \
	VFMADD213PD  HALF, Y0, Y1; \
	VFMADD213PD  ONE, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VFMADD213PD  ONE, Y1, Y0; \
	VPADDD       EXPBIAS, X2, X2; \
	VPMOVSXDQ    X2, Y2; \
	VPSLLQ       $52, Y2, Y2; \
	VMULPD       Y2, Y0, Y0

// TANH4 sets each lane of Y0 to Tanh of it: all three of the reference's
// branches are computed and each lane takes its own. The exponential of
// a lane outside its branch is garbage and never taken, so no lane
// leaves the kernel. It clobbers Y1-Y8.
#define TANH4 \
	VMOVAPD      Y0, Y6; \
	VANDPD       ABSMASK, Y0, Y4; \
	VANDPD       SIGNBIT, Y0, Y5; \
	VCMPPD       $0x0d, TANHMID, Y4, Y7; \
	VADDPD       Y4, Y4, Y0; \
	EXP4; \
	VADDPD       ONE, Y0, Y0; \
	VMOVUPD      TWO, Y1; \
	VDIVPD       Y0, Y1, Y1; \
	VMOVUPD      ONE, Y0; \
	VSUBPD       Y1, Y0, Y0; \
	VXORPD       Y5, Y0, Y0; \
	VORPD        ONE, Y5, Y1; \
	VCMPPD       $0x0e, TANHSAT, Y4, Y2; \
	VBLENDVPD    Y2, Y1, Y0, Y0; \
	VMULPD       Y6, Y6, Y1; \
	VMULPD       TANHP0, Y1, Y2; \
	VADDPD       TANHP1, Y2, Y2; \
	VMULPD       Y1, Y2, Y2; \
	VADDPD       TANHP2, Y2, Y2; \
	VADDPD       TANHQ0, Y1, Y3; \
	VMULPD       Y1, Y3, Y3; \
	VADDPD       TANHQ1, Y3, Y3; \
	VMULPD       Y1, Y3, Y3; \
	VADDPD       TANHQ2, Y3, Y3; \
	VMULPD       Y6, Y1, Y1; \
	VMULPD       Y2, Y1, Y1; \
	VDIVPD       Y3, Y1, Y1; \
	VADDPD       Y1, Y6, Y1; \
	VXORPD       Y2, Y2, Y2; \
	VCMPPD       $0, Y2, Y6, Y2; \
	VBLENDVPD    Y2, Y6, Y1, Y1; \
	VBLENDVPD    Y7, Y0, Y1, Y0

// In TANH4, Y4 is |x|, Y5 x's sign, Y6 x and Y7 the lanes with
// |x| ≥ 0.625; the exponential branch gives ±(1 − 2/(e^2|x| + 1)), the
// saturated one ±1 (the sign ORed into 1.0), and below 0.625 the
// rational function x + x·s·p(s)/q(s) of s = x², or x itself at ±0.

// Loads and stores of a whole group and of a group's first lanes.
#define LDU(addr, y) VMOVUPD addr, y
#define STU(y, addr) VMOVUPD y, addr
#define LDM(addr, y) VMASKMOVPD addr, Y15, y
#define STM(y, addr) VMASKMOVPD y, Y15, addr

// FLAT runs body(LDU, STU) on each whole group of four of the CX
// elements and body(LDM, STM) on the n mod 4 after them, with BX the
// group's first element; the caller has put the tail's mask in Y15. It
// clobbers DX.
#define FLAT(body, loop, tail, done) \
	MOVQ CX, DX; \
	ANDQ $-4, DX; \
	XORQ BX, BX; \
loop: \
	CMPQ BX, DX; \
	JAE  tail; \
	body(LDU, STU); \
	ADDQ $4, BX; \
	JMP  loop; \
tail: \
	CMPQ BX, CX; \
	JAE  done; \
	body(LDM, STM); \
done:

// func biasActAVX2(z, b []float64, cols, col int, a Activation) int
//
// z runs flat, BX counting its elements and CX the column of a group's
// first; R13 is the end of z's whole groups, and Y15 the mask of the
// tail's lanes. A group's biases are b[CX:CX+4] where b holds them (b is
// the bias extended past cols, or the group ends within its row), and
// otherwise, a group that crosses into the next row of a bias of
// cols ≥ 4, the row's last w = cols−CX from b[CX:] under the mask Y14
// and the next row's first from b[CX−cols:] under its complement.
TEXT ·biasActAVX2(SB), NOSPLIT, $0-80
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), DX
	MOVQ b_base+24(FP), SI
	MOVQ b_len+32(FP), R11
	MOVQ cols+48(FP), R8
	MOVQ col+56(FP), CX
	MOVQ a+64(FP), R9
	TAILMASK(DX)
	MOVQ DX, R13
	ANDQ $-4, R13
	XORQ BX, BX

bagroup:
	CMPQ BX, DX
	JAE  badone
	LEAQ 4(CX), R10
	CMPQ R10, R11
	JA   bawrap
	VMOVUPD (SI)(CX*8), Y1
	JMP     baz

bawrap:
	MOVQ       R8, R10
	SUBQ       CX, R10
	MOVQ       $4, R12
	SUBQ       R10, R12
	LEAQ       tailmask<>(SB), AX
	VMOVDQU    (AX)(R12*8), Y14
	VMASKMOVPD (SI)(CX*8), Y14, Y1
	VPCMPEQQ   Y2, Y2, Y2
	VPXOR      Y2, Y14, Y14
	MOVQ       CX, R12
	SUBQ       R8, R12
	VMASKMOVPD (SI)(R12*8), Y14, Y2
	VORPD      Y2, Y1, Y1

baz:
	CMPQ BX, R13
	JAE  baztail
	VMOVUPD (DI)(BX*8), Y0
	JMP     baadd

baztail:
	VMASKMOVPD (DI)(BX*8), Y15, Y0

baadd:
	VADDPD Y1, Y0, Y0
	CMPQ   R9, $0
	JLT    bastore // biasOnly
	JEQ    barelu
	CMPQ   R9, $1
	JEQ    basigmoid
	CMPQ   R9, $2
	JNE    bastore // not an activation: as activate, none
	TANH4
	JMP    bastore

barelu:
	VXORPD  Y1, Y1, Y1
	VCMPPD  $1, Y1, Y0, Y1
	VANDNPD Y0, Y1, Y0
	JMP     bastore

basigmoid:
	VXORPD    SIGNBIT, Y0, Y0
	EXP4
	VMOVMSKPD Y3, AX
	TESTQ     AX, AX
	JNZ       badone // the Go reference runs this group
	VADDPD    ONE, Y0, Y0
	VMOVUPD   ONE, Y1
	VDIVPD    Y0, Y1, Y0

bastore:
	CMPQ BX, R13
	JAE  batail
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	ADDQ    $4, CX

bawrapcol:
	CMPQ CX, R8
	JB   bagroup
	SUBQ R8, CX
	JMP  bawrapcol

batail:
	VMASKMOVPD Y0, Y15, (DI)(BX*8)
	MOVQ       DX, BX

badone:
	MOVQ BX, ret+72(FP)
	VZEROUPPER
	RET

// With Y6 = +0 and Y7 = 1: delta = 0 where out ≤ 0, delta·(o·(1−o)),
// and delta·(1−o·o).
#define GRADRELU(LD, ST) \
	LD((SI)(BX*8), Y1); \
	VCMPPD  $2, Y6, Y1, Y1; \
	LD((DI)(BX*8), Y0); \
	VANDNPD Y0, Y1, Y0; \
	ST(Y0, (DI)(BX*8))

#define GRADSIGMOID(LD, ST) \
	LD((SI)(BX*8), Y1); \
	VSUBPD Y1, Y7, Y2; \
	VMULPD Y2, Y1, Y2; \
	LD((DI)(BX*8), Y0); \
	VMULPD Y2, Y0, Y0; \
	ST(Y0, (DI)(BX*8))

#define GRADTANH(LD, ST) \
	LD((SI)(BX*8), Y1); \
	VMULPD Y1, Y1, Y2; \
	VSUBPD Y2, Y7, Y2; \
	LD((DI)(BX*8), Y0); \
	VMULPD Y2, Y0, Y0; \
	ST(Y0, (DI)(BX*8))

// func actGradAVX2(delta, out []float64, a Activation)
TEXT ·actGradAVX2(SB), NOSPLIT, $0-56
	MOVQ    delta_base+0(FP), DI
	MOVQ    delta_len+8(FP), CX
	MOVQ    out_base+24(FP), SI
	MOVQ    a+48(FP), R9
	TAILMASK(CX)
	VXORPD  Y6, Y6, Y6
	VMOVUPD ONE, Y7
	CMPQ    R9, $0
	JEQ     agrelu
	CMPQ    R9, $1
	JEQ     agsigmoid
	CMPQ    R9, $2
	JEQ     agtanh
	VZEROUPPER // not an activation: as the Go loops, no change
	RET

agrelu:
	FLAT(GRADRELU, agrloop, agrtail, agdone)
	VZEROUPPER
	RET

agsigmoid:
	FLAT(GRADSIGMOID, agsloop, agstail, agsdone)
	VZEROUPPER
	RET

agtanh:
	FLAT(GRADTANH, agtloop, agttail, agtdone)
	VZEROUPPER
	RET

// With Y6 = p and Y7 = keep: x = 0 where draws < p, x/keep elsewhere.
#define DROPOUT(LD, ST) \
	LD((SI)(BX*8), Y1); \
	VCMPPD  $1, Y6, Y1, Y1; \
	LD((DI)(BX*8), Y0); \
	VDIVPD  Y7, Y0, Y0; \
	VANDNPD Y0, Y1, Y0; \
	ST(Y0, (DI)(BX*8))

// func dropoutAVX2(x, draws []float64, p, keep float64)
TEXT ·dropoutAVX2(SB), NOSPLIT, $0-64
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	MOVQ         draws_base+24(FP), SI
	VBROADCASTSD p+48(FP), Y6
	VBROADCASTSD keep+56(FP), Y7
	TAILMASK(CX)
	FLAT(DROPOUT, droploop, droptail, dropdone)
	VZEROUPPER
	RET

// EXPBODY stops the kernel at a group with a lane that leaves exp's
// fast path, before storing it.
#define EXPBODY(LD, ST) \
	LD((DI)(BX*8), Y0); \
	EXP4; \
	VMOVMSKPD Y3, AX; \
	TESTQ     AX, AX; \
	JNZ       exstop; \
	ST(Y0, (DI)(BX*8))

// func expAVX2(x []float64) int
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	TAILMASK(CX)
	FLAT(EXPBODY, exloop, extail, exdone)
	MOVQ CX, ret+24(FP)
	VZEROUPPER
	RET

exstop:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET

// ZEROACC clears a chunk's accumulator; COLADD adds the chunk of the row
// at AX to it.
#define ZEROACC(off, acc) VXORPD acc, acc, acc
#define COLADD(off, acc) VADDPD off(AX), acc, acc

// func colSumsAVX2(dst, m []float64, rows int)
//
// Blocks of up to 32 columns as in mulAddAVX2: the full chunks' sums in
// Y6-Y13 and the last block's partial chunk in Y14, each from +0 over
// the rows in ascending order.
TEXT ·colSumsAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ m_base+24(FP), SI
	TAILMASK(R8)
	SHLQ $3, R8 // m's row stride in bytes
	XORQ BX, BX // the block's column offset in bytes

csblock:
	MOVQ R8, R12
	SUBQ BX, R12
	JZ   csdone
	CMPQ R12, $(36*8)
	JB   cslast
	MOVQ $32, CX
	XORQ R11, R11
	JMP  cszero

cslast:
	SHRQ $3, R12
	MOVQ R12, R11
	ANDQ $3, R11
	MOVQ R12, CX
	ANDQ $-4, CX

cszero:
	EACH(cszeroed, ZEROACC)

cszeroed:
	VXORPD Y14, Y14, Y14
	LEAQ   (SI)(BX*1), AX
	MOVQ   rows+48(FP), R13
	TESTQ  R13, R13
	JZ     csstore

csrow:
	EACH(csrowtail, COLADD)

csrowtail:
	TESTQ R11, R11
	JZ    csnext
	VMASKMOVPD (AX)(CX*8), Y15, Y4
	VADDPD     Y4, Y14, Y14

csnext:
	ADDQ R8, AX
	DECQ R13
	JNZ  csrow

csstore:
	LEAQ (DI)(BX*1), R10
	EACH(csstored, STOREACC)

csstored:
	LEAQ  (BX)(CX*8), BX
	TESTQ R11, R11
	JZ    csblock
	VMASKMOVPD Y14, Y15, (R10)(CX*8)

csdone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
