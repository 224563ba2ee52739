//go:build !purego

#include "textflag.h"

// func cpuHasAES() bool
TEXT ·cpuHasAES(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// LANE loads a lane's label, through the pointer at off(SI), into its
// state X, and label ⊕ body, the body through the pointer at off(DI),
// into T, which the lane's output takes at the end.
#define LANE(off, X, T) \
	MOVQ  off(SI), R8; \
	MOVOU (R8), X;     \
	MOVQ  off(DI), R9; \
	MOVOU (R9), T;     \
	PXOR  X, T

// ROUND runs one AES round, round key off(AX), on all four lanes.
#define ROUND(off) \
	MOVOU  off(AX), X8; \
	AESENC X8, X0;      \
	AESENC X8, X1;      \
	AESENC X8, X2;      \
	AESENC X8, X3

// func padGroupAsm(rk *roundKeys, dst *[GroupPads * PadSize]byte, labels, bodies *[GroupPads]*[PadSize]byte)
TEXT ·padGroupAsm(SB), NOSPLIT, $0-32
	MOVQ rk+0(FP), AX
	MOVQ dst+8(FP), DX
	MOVQ labels+16(FP), SI
	MOVQ bodies+24(FP), DI
	LANE(0, X0, X4)
	LANE(8, X1, X5)
	LANE(16, X2, X6)
	LANE(24, X3, X7)
	MOVOU (AX), X8
	PXOR  X8, X0
	PXOR  X8, X1
	PXOR  X8, X2
	PXOR  X8, X3
	ROUND(16)
	ROUND(32)
	ROUND(48)
	ROUND(64)
	ROUND(80)
	ROUND(96)
	ROUND(112)
	ROUND(128)
	ROUND(144)
	MOVOU      160(AX), X8
	AESENCLAST X8, X0
	AESENCLAST X8, X1
	AESENCLAST X8, X2
	AESENCLAST X8, X3
	PXOR       X4, X0
	PXOR       X5, X1
	PXOR       X6, X2
	PXOR       X7, X3
	MOVOU      X0, (DX)
	MOVOU      X1, 16(DX)
	MOVOU      X2, 32(DX)
	MOVOU      X3, 48(DX)
	RET
