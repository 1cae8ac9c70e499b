#include "textflag.h"

// The AVX lane kernel of activations.go: four float64 lanes, each running
// the Go definition's operations in the Go order, so each lane gets the Go
// bits. No FMA instruction may appear in this file, and no AVX2 one: the
// 2^k scale is shifted into place in two xmm halves, so hasAVX stays the
// whole gate.

DATA actc<>+0(SB)/8, $1.4426950408889634073599246810018920 // log2e
DATA actc<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // ln2U
DATA actc<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // ln2L
DATA actc<>+24(SB)/8, $0.0625
DATA actc<>+32(SB)/8, $2.4801587301587301587e-5 // expPoly
DATA actc<>+40(SB)/8, $1.9841269841269841270e-4
DATA actc<>+48(SB)/8, $1.3888888888888888889e-3
DATA actc<>+56(SB)/8, $8.3333333333333333333e-3
DATA actc<>+64(SB)/8, $4.1666666666666666667e-2
DATA actc<>+72(SB)/8, $1.6666666666666666667e-1
DATA actc<>+80(SB)/8, $0.5
DATA actc<>+88(SB)/8, $1.0
DATA actc<>+96(SB)/8, $2.0
DATA actc<>+104(SB)/8, $4503599627371519.0 // 2^52 + 1023: k's biased exponent in the low bits
DATA actc<>+112(SB)/8, $0x8000000000000000 // sign bit
DATA actc<>+120(SB)/8, $708.0 // sigmoid's lane range: e^-708 is still normal
DATA actc<>+128(SB)/8, $0x7FF0000000000000 // tanh's lane range: +Inf, so only NaN leaves
DATA actc<>+136(SB)/8, $44.02 // tanh clamp: 1 - 2/(e^88.04+1) rounds to 1
DATA actc<>+144(SB)/8, $0.625
DATA actc<>+152(SB)/8, $-9.64399179425052238628e-1 // tanhP
DATA actc<>+160(SB)/8, $-9.92877231001918586564e1
DATA actc<>+168(SB)/8, $-1.61468768441708447952e3
DATA actc<>+176(SB)/8, $1.12811678491632931402e2 // tanhQ
DATA actc<>+184(SB)/8, $2.23548839060100448583e3
DATA actc<>+192(SB)/8, $4.84406305325125486048e3
GLOBL actc<>(SB), RODATA|NOPTR, $200

// One Horner step of a polynomial in R: P = P*R + c.
#define HORNER(off, R, P) \
	VMULPD       R, P, P;             \
	VBROADCASTSD actc<>+off(SB), Y15; \
	VADDPD       Y15, P, P

// func actAVX(p unsafe.Pointer, n, op int) int
//
// Applies Sigmoid (op&1 == 0) or tanh (op&1 == 1) in place to the first
// n&^3 elements at p, float64 or, with op&2, float32 widened by VCVTPS2PD
// and narrowed by VCVTPD2PS (round to nearest, as Go's float32 conversion).
// It stops before the first group of four with a lane outside the range:
// |x| > 708 or NaN for Sigmoid, NaN for tanh. It returns how many elements
// it did.
TEXT ·actAVX(SB), NOSPLIT, $0-32
	MOVQ         p+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         op+16(FP), DX
	XORQ         AX, AX
	VBROADCASTSD actc<>+112(SB), Y14 // sign bit
	VBROADCASTSD actc<>+120(SB), Y13 // lane range
	TESTQ        $1, DX
	JZ           actgroups
	VBROADCASTSD actc<>+128(SB), Y13

actgroups:
	SHRQ $2, CX
	JZ   actdone

actloop:
	TESTQ     $2, DX
	JNZ       actload32
	VMOVUPD   (DI)(AX*8), Y0
	JMP       actrange
actload32:
	VCVTPS2PD (DI)(AX*4), Y0

actrange:
	VANDNPD Y0, Y14, Y1     // z = |x|
	VCMPPD  $6, Y13, Y1, Y2 // !(z <= range): beyond it, or NaN
	VTESTPD Y2, Y2
	JNZ     actdone
	TESTQ   $1, DX
	JNZ     acttanharg
	VORPD   Y14, Y0, Y3     // Sigmoid: e^-|x|, as e^-x for x >= 0, e^x below
	JMP     actexp
acttanharg:
	VBROADCASTSD actc<>+136(SB), Y3
	VMINPD       Y3, Y1, Y3
	VADDPD       Y3, Y3, Y3 // tanh: e^2z

	// exp(Y3) -> Y3, with k in Y4.
actexp:
	VBROADCASTSD actc<>+0(SB), Y4
	VMULPD       Y4, Y3, Y4
	VROUNDPD     $0, Y4, Y4     // k = RoundToEven(x*log2e)
	VBROADCASTSD actc<>+8(SB), Y5
	VMULPD       Y4, Y5, Y5
	VSUBPD       Y5, Y3, Y3     // x - k*ln2U
	VBROADCASTSD actc<>+16(SB), Y5
	VMULPD       Y4, Y5, Y5
	VSUBPD       Y5, Y3, Y3     // - k*ln2L
	VBROADCASTSD actc<>+24(SB), Y5
	VMULPD       Y5, Y3, Y3     // r
	VBROADCASTSD actc<>+32(SB), Y5
	HORNER(40, Y3, Y5)
	HORNER(48, Y3, Y5)
	HORNER(56, Y3, Y5)
	HORNER(64, Y3, Y5)
	HORNER(72, Y3, Y5)
	HORNER(80, Y3, Y5)
	HORNER(88, Y3, Y5)
	VMULPD       Y5, Y3, Y3     // r *= p
	VBROADCASTSD actc<>+96(SB), Y6
	VADDPD       Y6, Y3, Y5
	VMULPD       Y5, Y3, Y3     // r *= r+2, four times
	VADDPD       Y6, Y3, Y5
	VMULPD       Y5, Y3, Y3
	VADDPD       Y6, Y3, Y5
	VMULPD       Y5, Y3, Y3
	VADDPD       Y6, Y3, Y5
	VMULPD       Y5, Y3, Y3
	VBROADCASTSD actc<>+88(SB), Y6
	VADDPD       Y6, Y3, Y3     // + 1
	VBROADCASTSD actc<>+104(SB), Y5
	VADDPD       Y5, Y4, Y4     // low bits: k + 1023
	VEXTRACTF128 $1, Y4, X5
	VPSLLQ       $52, X4, X4
	VPSLLQ       $52, X5, X5
	VINSERTF128  $1, X5, Y4, Y4 // 2^k
	VMULPD       Y4, Y3, Y3

	TESTQ        $1, DX
	JNZ          acttanh
	VADDPD       Y6, Y3, Y4     // 1 + e
	VDIVPD       Y4, Y6, Y5     // x >= 0: 1/(1+e)
	VDIVPD       Y4, Y3, Y3     // x < 0: e/(1+e)
	VBLENDVPD    Y0, Y3, Y5, Y0 // on x's sign bit: at -0 both give 1/2
	JMP          actstore

	// tanh: z >= 0.625 ? 1 - 2/(s+1) : z + z*s*p/q with s = z*z, then
	// x's sign. The small branch is odd and exact under negation, so it
	// may run on z, and the sign makes tanh(-0) = -0.
acttanh:
	VADDPD       Y6, Y3, Y3
	VBROADCASTSD actc<>+96(SB), Y4
	VDIVPD       Y3, Y4, Y3
	VSUBPD       Y3, Y6, Y3     // big branch
	VMULPD       Y1, Y1, Y4     // s
	VBROADCASTSD actc<>+152(SB), Y5
	HORNER(160, Y4, Y5)
	HORNER(168, Y4, Y5)         // p
	VBROADCASTSD actc<>+176(SB), Y6
	VADDPD       Y4, Y6, Y6
	HORNER(184, Y4, Y6)
	HORNER(192, Y4, Y6)         // q
	VMULPD       Y4, Y1, Y7     // z*s
	VMULPD       Y5, Y7, Y7
	VDIVPD       Y6, Y7, Y7
	VADDPD       Y7, Y1, Y7     // small branch
	VBROADCASTSD actc<>+144(SB), Y8
	VCMPPD       $1, Y8, Y1, Y8 // z < 0.625
	VBLENDVPD    Y8, Y7, Y3, Y3
	VANDPD       Y14, Y0, Y0
	VORPD        Y3, Y0, Y0

actstore:
	TESTQ      $2, DX
	JNZ        actstore32
	VMOVUPD    Y0, (DI)(AX*8)
	JMP        actnext
actstore32:
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)(AX*4)

actnext:
	ADDQ $4, AX
	DECQ CX
	JNZ  actloop

actdone:
	MOVQ       AX, ret+24(FP)
	VZEROUPPER
	RET
