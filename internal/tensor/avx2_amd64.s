#include "textflag.h"

// The AVX2 kernels behind MatMul, TMatMul, MatMulT and Adam.Step. Every
// lane computes one output element with the very operations, in the
// very order, of the portable Go loop it replaces (tensor.go), so the
// results are the same bits. No FMA: the Go compiler does not fuse a
// product into a sum on amd64 at the default GOAMD64=v1, and a fused
// one rounds once where the Go code rounds twice.

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
