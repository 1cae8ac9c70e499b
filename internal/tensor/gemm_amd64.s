#include "textflag.h"

// AVX microkernels for the GEMMs (see gemm_vec.go). Every lane is an
// independent output, and each output gets one VMULPD then one VADDPD per
// term (VMULPS and VADDPS in the float32 forms), in the order of the Go
// kernel it replaces: the same rounding steps, so the same bits. No FMA
// instruction may appear in this file, and no AVX2 one: hasAVX is the whole
// gate.

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV               // XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func axpyQuadAVX(d, b []float64, stride int, a0, a1, a2, a3 float64)
//
// d[j] = (((d[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j] for j <
// len(d), a multiple of 4, where bq[j] = b[q*stride+j].
TEXT ·axpyQuadAVX(SB), NOSPLIT, $0-88
	MOVQ         d_base+0(FP), DI
	MOVQ         d_len+8(FP), CX
	MOVQ         b_base+24(FP), R8
	MOVQ         stride+48(FP), R9
	SHLQ         $3, R9
	LEAQ         (R8)(R9*1), R11     // b1
	LEAQ         (R8)(R9*2), R10     // b2
	LEAQ         (R10)(R9*1), R12    // b3
	VBROADCASTSD a0+56(FP), Y0
	VBROADCASTSD a1+64(FP), Y1
	VBROADCASTSD a2+72(FP), Y2
	VBROADCASTSD a3+80(FP), Y3
	XORQ         AX, AX
	SHRQ         $2, CX
	JZ           axpydone

axpyloop:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R11)(AX*8), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y7
	VADDPD  Y7, Y4, Y4
	VMULPD  (R12)(AX*8), Y3, Y8
	VADDPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	DECQ    CX
	JNZ     axpyloop

axpydone:
	VZEROUPPER
	RET

// func dotLanesAVX(acc, aT, b unsafe.Pointer, stride, k int, f32 bool)
//
// For eight float64 columns c (sixteen float32 ones) and four lanes l,
// acc[4c+l] += aT[4p+l] * b[c*stride+p], one p at a time in ascending order:
// a sequential sum per output, carried in and out through acc.
TEXT ·dotLanesAVX(SB), NOSPLIT, $0-41
	MOVQ acc+0(FP), DI
	MOVQ aT+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ stride+24(FP), R9
	MOVQ k+32(FP), CX
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	CMPB f32+40(FP), $0
	JNE  lanes32
	SHLQ    $3, R9
	LEAQ    (R9)(R9*2), R10 // 3 rows
	LEAQ    (R8)(R9*4), R11 // columns 4..7
	TESTQ   CX, CX
	JZ      dotstore

dotloop:
	VMOVUPD      (SI), Y8
	VBROADCASTSD (R8), Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       Y9, Y0, Y0
	VBROADCASTSD (R8)(R9*1), Y10
	VMULPD       Y8, Y10, Y10
	VADDPD       Y10, Y1, Y1
	VBROADCASTSD (R8)(R9*2), Y11
	VMULPD       Y8, Y11, Y11
	VADDPD       Y11, Y2, Y2
	VBROADCASTSD (R8)(R10*1), Y12
	VMULPD       Y8, Y12, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (R11), Y13
	VMULPD       Y8, Y13, Y13
	VADDPD       Y13, Y4, Y4
	VBROADCASTSD (R11)(R9*1), Y14
	VMULPD       Y8, Y14, Y14
	VADDPD       Y14, Y5, Y5
	VBROADCASTSD (R11)(R9*2), Y15
	VMULPD       Y8, Y15, Y15
	VADDPD       Y15, Y6, Y6
	VBROADCASTSD (R11)(R10*1), Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         $32, SI
	ADDQ         $8, R8
	ADDQ         $8, R11
	DECQ         CX
	JNZ          dotloop

dotstore:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// The float32 form: one ymm carries the four lanes of two adjacent columns.
// aT's four lanes broadcast to both halves, and each half takes its own
// column's term. acc moves in and out as the same 256 bytes either way.
lanes32:
	SHLQ    $2, R9
	LEAQ    (R9)(R9*2), R10  // 3 rows
	LEAQ    (R8)(R9*4), R11  // columns 4..7
	LEAQ    (R11)(R9*4), R12 // columns 8..11
	LEAQ    (R12)(R9*4), R13 // columns 12..15
	TESTQ   CX, CX
	JZ      dotstore

// Term p of two adjacent columns, at lo and hi, into the halves of T, then
// ACC += aT * T.
#define PAIR(lo, hi, T, U, ACC) \
	VBROADCASTSS lo, T;          \
	VBROADCASTSS hi, U;          \
	VBLENDPS     $0xF0, U, T, T; \
	VMULPS       Y8, T, T;       \
	VADDPS       T, ACC, ACC

lane32loop:
	VBROADCASTF128 (SI), Y8
	PAIR((R8), (R8)(R9*1), Y9, Y10, Y0)
	PAIR((R8)(R9*2), (R8)(R10*1), Y11, Y12, Y1)
	PAIR((R11), (R11)(R9*1), Y13, Y14, Y2)
	PAIR((R11)(R9*2), (R11)(R10*1), Y15, Y9, Y3)
	PAIR((R12), (R12)(R9*1), Y10, Y11, Y4)
	PAIR((R12)(R9*2), (R12)(R10*1), Y12, Y13, Y5)
	PAIR((R13), (R13)(R9*1), Y14, Y15, Y6)
	PAIR((R13)(R9*2), (R13)(R10*1), Y9, Y10, Y7)
	ADDQ           $16, SI
	ADDQ           $4, R8
	ADDQ           $4, R11
	ADDQ           $4, R12
	ADDQ           $4, R13
	DECQ           CX
	JNZ            lane32loop
	JMP            dotstore

// func dotColsAVX(s, a, b unsafe.Pointer, stride, k int, f32 bool)
//
// For eight float64 columns c (sixteen float32 ones), s[c] = a[0]*bc[0] +
// a[1]*bc[1] + ... summed from +0 in ascending order over the first k&^1
// terms (k&^3 at float32), where bc[p] = b[c*stride+p]. Each step transposes
// two terms of four columns (four of eight) in registers, so one lane
// carries one column's sequential sum.
TEXT ·dotColsAVX(SB), NOSPLIT, $0-41
	MOVQ s+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ stride+24(FP), R9
	MOVQ k+32(FP), CX
	VXORPD Y0, Y0, Y0 // +0 at either dtype
	VXORPD Y1, Y1, Y1
	CMPB f32+40(FP), $0
	JNE  cols32
	SHLQ   $3, R9
	LEAQ   (R9)(R9*2), R10 // 3 rows
	LEAQ   (R8)(R9*4), R11 // columns 4..7
	SHRQ   $1, CX
	JZ     colstore

colloop:
	VBROADCASTSD (SI), Y2
	VBROADCASTSD 8(SI), Y3
	VMOVUPD      (R8), X4
	VMOVUPD      (R8)(R9*1), X5
	VINSERTF128  $1, (R8)(R9*2), Y4, Y4
	VINSERTF128  $1, (R8)(R10*1), Y5, Y5
	VUNPCKLPD    Y5, Y4, Y6             // term p of columns 0..3
	VUNPCKHPD    Y5, Y4, Y7             // term p+1
	VMULPD       Y6, Y2, Y6
	VADDPD       Y6, Y0, Y0
	VMULPD       Y7, Y3, Y7
	VADDPD       Y7, Y0, Y0
	VMOVUPD      (R11), X8
	VMOVUPD      (R11)(R9*1), X9
	VINSERTF128  $1, (R11)(R9*2), Y8, Y8
	VINSERTF128  $1, (R11)(R10*1), Y9, Y9
	VUNPCKLPD    Y9, Y8, Y10            // term p of columns 4..7
	VUNPCKHPD    Y9, Y8, Y11            // term p+1
	VMULPD       Y10, Y2, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       Y11, Y3, Y11
	VADDPD       Y11, Y1, Y1
	ADDQ         $16, SI
	ADDQ         $16, R8
	ADDQ         $16, R11
	DECQ         CX
	JNZ          colloop

colstore:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

cols32:
	SHLQ   $2, R9
	LEAQ   (R9)(R9*2), R10  // 3 rows
	LEAQ   (R8)(R9*4), R11  // columns 4..7
	LEAQ   (R11)(R9*4), R12 // columns 8..11
	LEAQ   (R12)(R9*4), R13 // columns 12..15
	SHRQ   $2, CX
	JZ     colstore

// Terms p..p+3 of columns B..B+3 (low halves) and C..C+3 (high halves),
// transposed so each of Y4..Y7 holds one term of the eight columns, then
// added to ACC in ascending order.
#define COLS8(B, C, ACC) \
	VMOVUPS     (B), X4;                \
	VMOVUPS     (B)(R9*1), X5;          \
	VMOVUPS     (B)(R9*2), X6;          \
	VMOVUPS     (B)(R10*1), X7;         \
	VINSERTF128 $1, (C), Y4, Y4;        \
	VINSERTF128 $1, (C)(R9*1), Y5, Y5;  \
	VINSERTF128 $1, (C)(R9*2), Y6, Y6;  \
	VINSERTF128 $1, (C)(R10*1), Y7, Y7; \
	VUNPCKLPS   Y5, Y4, Y8;             \
	VUNPCKHPS   Y5, Y4, Y9;             \
	VUNPCKLPS   Y7, Y6, Y10;            \
	VUNPCKHPS   Y7, Y6, Y11;            \
	VUNPCKLPD   Y10, Y8, Y4;            \
	VUNPCKHPD   Y10, Y8, Y5;            \
	VUNPCKLPD   Y11, Y9, Y6;            \
	VUNPCKHPD   Y11, Y9, Y7;            \
	VMULPS      Y4, Y12, Y4;            \
	VADDPS      Y4, ACC, ACC;           \
	VMULPS      Y5, Y13, Y5;            \
	VADDPS      Y5, ACC, ACC;           \
	VMULPS      Y6, Y14, Y6;            \
	VADDPS      Y6, ACC, ACC;           \
	VMULPS      Y7, Y15, Y7;            \
	VADDPS      Y7, ACC, ACC

col32loop:
	VBROADCASTSS (SI), Y12
	VBROADCASTSS 4(SI), Y13
	VBROADCASTSS 8(SI), Y14
	VBROADCASTSS 12(SI), Y15
	COLS8(R8, R11, Y0)
	COLS8(R12, R13, Y1)
	ADDQ         $16, SI
	ADDQ         $16, R8
	ADDQ         $16, R11
	ADDQ         $16, R12
	ADDQ         $16, R13
	DECQ         CX
	JNZ          col32loop
	JMP          colstore
