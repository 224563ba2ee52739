//go:build !purego

#include "textflag.h"

// EXPAND sets X0, round key i-1 of an AES-128 schedule, to round key i,
// rcon being round i's constant, and stores it at off(R): AESKEYGENASSIST
// gives SubWord(RotWord(w3)) ⊕ rcon in its top word, which PSHUFD
// broadcasts; the three shifted XORs make the running XOR of X0's words.
// No step reads memory at an address the key decides.
#define EXPAND(rcon, off, R) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD          $0xff, X1, X1; \
	MOVO            X0, X2;        \
	PSLLDQ          $4, X2;        \
	PXOR            X2, X0;        \
	PSLLDQ          $4, X2;        \
	PXOR            X2, X0;        \
	PSLLDQ          $4, X2;        \
	PXOR            X2, X0;        \
	PXOR            X1, X0;        \
	MOVOU           X0, off(R)

// EXPAND_KEY stores the 11 round keys of the AES-128 key in X0 at 0(R)
// onward (FIPS-197 §5.2).
#define EXPAND_KEY(R) \
	MOVOU X0, 0(R);       \
	EXPAND(0x01, 16, R);  \
	EXPAND(0x02, 32, R);  \
	EXPAND(0x04, 48, R);  \
	EXPAND(0x08, 64, R);  \
	EXPAND(0x10, 80, R);  \
	EXPAND(0x20, 96, R);  \
	EXPAND(0x40, 112, R); \
	EXPAND(0x80, 128, R); \
	EXPAND(0x1b, 144, R); \
	EXPAND(0x36, 160, R)

// func expandKeyAsm(key *[16]byte, rk *roundKeys)
TEXT ·expandKeyAsm(SB), NOSPLIT, $0-16
	MOVQ  key+0(FP), AX
	MOVQ  rk+8(FP), DX
	MOVOU (AX), X0
	EXPAND_KEY(DX)
	RET

// permuteGroupsAsm keeps its constants and what one group hands the next
// in a 16-byte aligned scratch area of its frame, based at BX, so that
// SSE instructions may take them as memory operands. Two slots, at SLOT
// and SLOT+128, alternate from group to group: the group derived in a
// step writes one while the group placed in it reads the other.
#define RK 0 // the object key's 11 round keys
#define PI 176 // π's 11 round keys
#define CTR 352 // the group-0 counter blocks ⊕ round key 0: ct+1 rows b = 0..3, then ct rows
#define M3 480 // 03 00 … 00: a colour's bits; also the colour of bit value 3
#define NM3 496 // its complement
#define C1 512 // 01 00 … 00, the colour of bit value 1
#define C2 528 // 02 00 … 00
#define SLOT 544 // a group's painted counter-ct labels, bit value b at 16·b
#define SWAP 608 // then its swap masks: -(r & 1), then -(r >> 1), each broadcast
#define WSEL 640 // then its select masks: -(w & 1), then -(w >> 1), likewise
// 800 bytes, and 15 to align them.

// ROUND8 runs one round of the object key's schedule on the label lanes
// X0–X7, ROUND4 one of π's on the pad lanes X8–X11, each round key
// loaded once into X12 or X13: AESENC with a memory operand runs slower.
#define ROUND8(k) \
	MOVOU  RK+k(BX), X12; \
	AESENC X12, X0;       \
	AESENC X12, X1;       \
	AESENC X12, X2;       \
	AESENC X12, X3;       \
	AESENC X12, X4;       \
	AESENC X12, X5;       \
	AESENC X12, X6;       \
	AESENC X12, X7

#define ROUND4(k) \
	MOVOU  PI+k(BX), X13; \
	AESENC X13, X8;       \
	AESENC X13, X9;       \
	AESENC X13, X10;      \
	AESENC X13, X11

// ROUND12 runs round k on all twelve lanes, the two groups' interleaved.
#define ROUND12(k) \
	MOVOU  RK+k(BX), X12; \
	MOVOU  PI+k(BX), X13; \
	AESENC X12, X0;       \
	AESENC X13, X8;       \
	AESENC X12, X1;       \
	AESENC X13, X9;       \
	AESENC X12, X2;       \
	AESENC X13, X10;      \
	AESENC X12, X3;       \
	AESENC X13, X11;      \
	AESENC X12, X4;       \
	AESENC X12, X5;       \
	AESENC X12, X6;       \
	AESENC X12, X7

#define LAST8 \
	MOVOU      RK+160(BX), X12; \
	AESENCLAST X12, X0;         \
	AESENCLAST X12, X1;         \
	AESENCLAST X12, X2;         \
	AESENCLAST X12, X3;         \
	AESENCLAST X12, X4;         \
	AESENCLAST X12, X5;         \
	AESENCLAST X12, X6;         \
	AESENCLAST X12, X7

#define LAST4 \
	MOVOU      PI+160(BX), X13; \
	AESENCLAST X13, X8;         \
	AESENCLAST X13, X9;         \
	AESENCLAST X13, X10;        \
	AESENCLAST X13, X11

// LABELS starts the label lanes of group R10: X0–X3 its counter-ct+1
// blocks of bit values 0–3, X4–X7 its counter-ct ones, each the group-0
// block with the group big-endian in its last six bytes, whitened.
#define LABELS \
	MOVQ   R10, R13;       \
	BSWAPQ R13;            \
	MOVQ   R13, X12;       \
	PSHUFD $0x4e, X12, X12; \
	MOVOU  CTR(BX), X0;    \
	PXOR   X12, X0;        \
	MOVOU  CTR+16(BX), X1; \
	PXOR   X12, X1;        \
	MOVOU  CTR+32(BX), X2; \
	PXOR   X12, X2;        \
	MOVOU  CTR+48(BX), X3; \
	PXOR   X12, X3;        \
	MOVOU  CTR+64(BX), X4; \
	PXOR   X12, X4;        \
	MOVOU  CTR+80(BX), X5; \
	PXOR   X12, X5;        \
	MOVOU  CTR+96(BX), X6; \
	PXOR   X12, X6;        \
	MOVOU  CTR+112(BX), X7; \
	PXOR   X12, X7

// PADS starts the pad lanes X8–X11 as the painted old labels in the slot
// at R12, whitened under π.
#define PADS \
	MOVOU PI(BX), X13;             \
	MOVOU SLOT(BX)(R12*1), X8;     \
	PXOR  X13, X8;                 \
	MOVOU SLOT+16(BX)(R12*1), X9;  \
	PXOR  X13, X9;                 \
	MOVOU SLOT+32(BX)(R12*1), X10; \
	PXOR  X13, X10;                \
	MOVOU SLOT+48(BX)(R12*1), X11; \
	PXOR  X13, X11

// UNPAD finishes the pad lanes: π(L) ⊕ L for each old label L.
#define UNPAD \
	PXOR SLOT(BX)(R12*1), X8;     \
	PXOR SLOT+16(BX)(R12*1), X9;  \
	PXOR SLOT+32(BX)(R12*1), X10; \
	PXOR SLOT+48(BX)(R12*1), X11

// PAINT gives labels B, C and D of bit values 1–3 the colours 1 ⊕ r,
// 2 ⊕ r and 3 ⊕ r, r being the colour of bit value 0's label A, which
// keeps its own; it leaves r's vector, A & M3, in X13. X12 holds NM3.
#define PAINT(A, B, C, D) \
	MOVO A, X13;      \
	PAND M3(BX), X13; \
	PAND X12, B;      \
	PXOR X13, B;      \
	PXOR C1(BX), B;   \
	PAND X12, C;      \
	PXOR X13, C;      \
	PXOR C2(BX), C;   \
	PAND X12, D;      \
	PXOR X13, D;      \
	PXOR M3(BX), D

// MASK stores at off(BX)(R13*1) the 16-byte mask whose bytes are all ones
// where R, 0 or 1, is 1, and zero otherwise.
#define MASK(R, off) \
	NEGQ R;                   \
	MOVQ R, off(BX)(R13*1);   \
	MOVQ R, off+8(BX)(R13*1)

// LABELLED finishes group R10's labels: paints both sets, stores the new
// ones in their news rows and the old ones in the other slot than R12's,
// writes which old bits key each entry, e ⊕ r for entry e, into the
// group's olds, and keeps in that slot the masks PLACE selects by: r's
// bits, and w's, the group's written bits.
#define LABELLED \
	MOVOU  NM3(BX), X12;           \
	PAINT(X0, X1, X2, X3);         \
	MOVQ   R10, R13;               \
	SHLQ   $4, R13;                \
	ADDQ   DX, R13;                \
	MOVOU  X0, (R13);              \
	MOVOU  X1, (R13)(SI*1);        \
	MOVOU  X2, (R13)(SI*2);        \
	MOVOU  X3, (R13)(DI*1);        \
	PAINT(X4, X5, X6, X7);         \
	MOVQ   R12, R13;               \
	XORQ   $128, R13;              \
	MOVOU  X4, SLOT(BX)(R13*1);    \
	MOVOU  X5, SLOT+16(BX)(R13*1); \
	MOVOU  X6, SLOT+32(BX)(R13*1); \
	MOVOU  X7, SLOT+48(BX)(R13*1); \
	MOVQ   X13, R14;               \
	IMUL3L $0x01010101, R14, CX;   \
	XORL   $0x03020100, CX;        \
	MOVL   CX, (R8)(R10*4);        \
	MOVQ   R14, CX;                \
	ANDQ   $1, CX;                 \
	MASK(CX, SWAP);                \
	SHRQ   $1, R14;                \
	MASK(R14, SWAP+16);            \
	MOVQ   R10, R14;               \
	SHRQ   $2, R14;                \
	MOVBLZX (R9)(R14*1), R14;      \
	MOVQ   R10, CX;                \
	ANDL   $3, CX;                 \
	SHLL   $1, CX;                 \
	SHRL   CX, R14;                \
	MOVQ   R14, CX;                \
	ANDQ   $1, CX;                 \
	MASK(CX, WSEL);                \
	SHRQ   $1, R14;                \
	ANDQ   $1, R14;                \
	MASK(R14, WSEL+16)

// KEEP XORs the new label N into pad Q where the access is a read (X15
// all ones): a read's entry for the old bits b carries b's new label.
#define KEEP(N, Q) \
	MOVO N, X4;   \
	PAND X15, X4; \
	PXOR X4, Q

// SELECT sets A to B where the mask M is all ones, leaving it otherwise;
// it overwrites B.
#define SELECT(A, B, M) \
	PXOR A, B; \
	PAND M, B; \
	PXOR B, A

// CSWAP swaps A and B where the mask M is all ones.
#define CSWAP(A, B, M) \
	MOVO A, X7; \
	PXOR B, X7; \
	PAND M, X7; \
	PXOR X7, A; \
	PXOR X7, B

// PLACE finishes group R10-1, its slot at R12, from its pads in X8–X11,
// bit value b's in X(8+b), and stores its four entries: entry e is the
// pad of the old label coloured e, bits e ⊕ r, XOR the new label of the
// entry's target bits — e ⊕ r again for a read, the written bits w for a
// write. The pads' order is fixed by conditional swaps on r's bits, the
// written label is picked by masks from w, and keep, in X15, picks
// between the two.
#define PLACE \
	LEAQ  -1(R10), R13;           \
	SHLQ  $4, R13;                \
	ADDQ  DX, R13;                \
	MOVOU (R13), X0;              \
	MOVOU (R13)(SI*1), X1;        \
	MOVOU (R13)(SI*2), X2;        \
	MOVOU (R13)(DI*1), X3;        \
	MOVOU WSEL(BX)(R12*1), X5;    \
	MOVOU WSEL+16(BX)(R12*1), X6; \
	MOVOU SWAP(BX)(R12*1), X12;   \
	MOVOU SWAP+16(BX)(R12*1), X13; \
	KEEP(X0, X8);                 \
	KEEP(X1, X9);                 \
	KEEP(X2, X10);                \
	KEEP(X3, X11);                \
	SELECT(X0, X1, X5);           \
	SELECT(X2, X3, X5);           \
	SELECT(X0, X2, X6);           \
	MOVO  X15, X4;                \
	PANDN X0, X4;                 \
	CSWAP(X8, X9, X12);           \
	CSWAP(X10, X11, X12);         \
	CSWAP(X8, X10, X13);          \
	CSWAP(X9, X11, X13);          \
	PXOR  X4, X8;                 \
	PXOR  X4, X9;                 \
	PXOR  X4, X10;                \
	PXOR  X4, X11;                \
	LEAQ  -1(R10), R13;           \
	SHLQ  $6, R13;                \
	ADDQ  AX, R13;                \
	MOVOU X8, (R13);              \
	MOVOU X9, 16(R13);            \
	MOVOU X10, 32(R13);           \
	MOVOU X11, 48(R13)

// func permuteGroupsAsm(key *[16]byte, pi *roundKeys, ctrs *[2 * GroupPads][PadSize]byte, table, news *byte, stride int, olds, value *byte, g0, n int, keep uint64)
//
// It is software-pipelined a group deep: the step for group g derives
// g's eight labels while it pads the previous group's four old labels,
// twelve AES lanes in flight, then places that previous group. Every
// branch and every address depends on the group index alone.
TEXT ·permuteGroupsAsm(SB), 0, $816-88
	LEAQ  15(SP), BX
	ANDQ  $-16, BX
	MOVQ  key+0(FP), AX
	MOVOU (AX), X0
	EXPAND_KEY(BX)

	MOVQ  pi+8(FP), AX
	MOVOU 0(AX), X0
	MOVOU X0, PI+0(BX)
	MOVOU 16(AX), X0
	MOVOU X0, PI+16(BX)
	MOVOU 32(AX), X0
	MOVOU X0, PI+32(BX)
	MOVOU 48(AX), X0
	MOVOU X0, PI+48(BX)
	MOVOU 64(AX), X0
	MOVOU X0, PI+64(BX)
	MOVOU 80(AX), X0
	MOVOU X0, PI+80(BX)
	MOVOU 96(AX), X0
	MOVOU X0, PI+96(BX)
	MOVOU 112(AX), X0
	MOVOU X0, PI+112(BX)
	MOVOU 128(AX), X0
	MOVOU X0, PI+128(BX)
	MOVOU 144(AX), X0
	MOVOU X0, PI+144(BX)
	MOVOU 160(AX), X0
	MOVOU X0, PI+160(BX)

	// Round key 0 folds into the counter blocks once, for every group.
	MOVQ  ctrs+16(FP), AX
	MOVOU RK(BX), X1
	MOVOU 0(AX), X0
	PXOR  X1, X0
	MOVOU X0, CTR+0(BX)
	MOVOU 16(AX), X0
	PXOR  X1, X0
	MOVOU X0, CTR+16(BX)
	MOVOU 32(AX), X0
	PXOR  X1, X0
	MOVOU X0, CTR+32(BX)
	MOVOU 48(AX), X0
	PXOR  X1, X0
	MOVOU X0, CTR+48(BX)
	MOVOU 64(AX), X0
	PXOR  X1, X0
	MOVOU X0, CTR+64(BX)
	MOVOU 80(AX), X0
	PXOR  X1, X0
	MOVOU X0, CTR+80(BX)
	MOVOU 96(AX), X0
	PXOR  X1, X0
	MOVOU X0, CTR+96(BX)
	MOVOU 112(AX), X0
	PXOR  X1, X0
	MOVOU X0, CTR+112(BX)

	MOVQ    $3, CX
	MOVQ    CX, X0
	MOVOU   X0, M3(BX)
	PCMPEQB X1, X1
	PXOR    X0, X1
	MOVOU   X1, NM3(BX)
	MOVQ    $1, CX
	MOVQ    CX, X0
	MOVOU   X0, C1(BX)
	MOVQ    $2, CX
	MOVQ    CX, X0
	MOVOU   X0, C2(BX)

	MOVQ       keep+80(FP), X15
	PUNPCKLQDQ X15, X15

	// AX is the table as if it began at group 0: group g's entries are
	// at 64·g(AX). Row b of news is at b·stride(DX).
	MOVQ table+24(FP), AX
	MOVQ news+32(FP), DX
	MOVQ stride+40(FP), SI
	LEAQ (SI)(SI*2), DI
	MOVQ olds+48(FP), R8
	MOVQ value+56(FP), R9
	MOVQ g0+64(FP), R10
	MOVQ n+72(FP), R11
	ADDQ R10, R11
	MOVQ R10, CX
	SHLQ $6, CX
	SUBQ CX, AX

	// The first group is only derived, into slot 0. R12 is the slot of
	// the group before R10's.
	MOVQ $128, R12
	LABELS
	ROUND8(16)
	ROUND8(32)
	ROUND8(48)
	ROUND8(64)
	ROUND8(80)
	ROUND8(96)
	ROUND8(112)
	ROUND8(128)
	ROUND8(144)
	LAST8
	LABELLED
	XORQ R12, R12
	INCQ R10

step:
	CMPQ R10, R11
	JAE  last
	LABELS
	PADS
	ROUND12(16)
	ROUND12(32)
	ROUND12(48)
	ROUND12(64)
	ROUND12(80)
	ROUND12(96)
	ROUND12(112)
	ROUND12(128)
	ROUND12(144)
	LAST8
	LAST4
	UNPAD
	LABELLED
	PLACE
	XORQ $128, R12
	INCQ R10
	JMP  step

	// The last group is only padded and placed.
last:
	PADS
	ROUND4(16)
	ROUND4(32)
	ROUND4(48)
	ROUND4(64)
	ROUND4(80)
	ROUND4(96)
	ROUND4(112)
	ROUND4(128)
	ROUND4(144)
	LAST4
	UNPAD
	PLACE
	RET
