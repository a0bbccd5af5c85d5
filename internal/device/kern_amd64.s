#include "textflag.h"

// func kern4x8SSE(kc int, a, b *float32, ldb int, c *float32, ldc, tiles int)
//
// For each of tiles 8-column tiles, the 4×8 block of C (two 4-lane halves
// per row) lives in X0..X7 or X8..X15, alternating every k: one step
// computes next = B*a + cur for each half by loading the B half into the
// next register, multiplying it by the row's broadcast A value straight
// from the 16-byte-aligned strip (MULPS m128) and adding the current
// accumulator into the product. The product is always the destination
// operand, so a NaN product's payload wins over a NaN accumulator, and
// B's over A's, as in axpySSE. kc >= 1, tiles >= 1.
TEXT ·kern4x8SSE(SB), NOSPLIT, $0-56
	MOVQ ldb+24(FP), DX
	SHLQ $2, DX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R8
	SHLQ $2, R8
	MOVQ b+16(FP), R10 // B at the current tile
	MOVQ tiles+48(FP), R11

tile:
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ R10, BX
	LEAQ (DI)(R8*2), R9 // row 2
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS (DI)(R8*1), X2
	MOVUPS 16(DI)(R8*1), X3
	MOVUPS (R9), X4
	MOVUPS 16(R9), X5
	MOVUPS (R9)(R8*1), X6
	MOVUPS 16(R9)(R8*1), X7

	// Odd kc: one step into X8..X15, then move the tile back to X0..X7.
	TESTQ $1, CX
	JZ    pairs
	MOVUPS (BX), X8
	MULPS  0(SI), X8
	ADDPS  X0, X8
	MOVUPS 16(BX), X9
	MULPS  0(SI), X9
	ADDPS  X1, X9
	MOVUPS (BX), X10
	MULPS  16(SI), X10
	ADDPS  X2, X10
	MOVUPS 16(BX), X11
	MULPS  16(SI), X11
	ADDPS  X3, X11
	MOVUPS (BX), X12
	MULPS  32(SI), X12
	ADDPS  X4, X12
	MOVUPS 16(BX), X13
	MULPS  32(SI), X13
	ADDPS  X5, X13
	MOVUPS (BX), X14
	MULPS  48(SI), X14
	ADDPS  X6, X14
	MOVUPS 16(BX), X15
	MULPS  48(SI), X15
	ADDPS  X7, X15
	MOVAPS X8, X0
	MOVAPS X9, X1
	MOVAPS X10, X2
	MOVAPS X11, X3
	MOVAPS X12, X4
	MOVAPS X13, X5
	MOVAPS X14, X6
	MOVAPS X15, X7
	ADDQ  $64, SI
	ADDQ  DX, BX
	DECQ  CX
	JZ    store

pairs:
	MOVUPS (BX), X8
	MULPS  0(SI), X8
	ADDPS  X0, X8
	MOVUPS 16(BX), X9
	MULPS  0(SI), X9
	ADDPS  X1, X9
	MOVUPS (BX), X10
	MULPS  16(SI), X10
	ADDPS  X2, X10
	MOVUPS 16(BX), X11
	MULPS  16(SI), X11
	ADDPS  X3, X11
	MOVUPS (BX), X12
	MULPS  32(SI), X12
	ADDPS  X4, X12
	MOVUPS 16(BX), X13
	MULPS  32(SI), X13
	ADDPS  X5, X13
	MOVUPS (BX), X14
	MULPS  48(SI), X14
	ADDPS  X6, X14
	MOVUPS 16(BX), X15
	MULPS  48(SI), X15
	ADDPS  X7, X15
	ADDQ   DX, BX
	MOVUPS (BX), X0
	MULPS  64(SI), X0
	ADDPS  X8, X0
	MOVUPS 16(BX), X1
	MULPS  64(SI), X1
	ADDPS  X9, X1
	MOVUPS (BX), X2
	MULPS  80(SI), X2
	ADDPS  X10, X2
	MOVUPS 16(BX), X3
	MULPS  80(SI), X3
	ADDPS  X11, X3
	MOVUPS (BX), X4
	MULPS  96(SI), X4
	ADDPS  X12, X4
	MOVUPS 16(BX), X5
	MULPS  96(SI), X5
	ADDPS  X13, X5
	MOVUPS (BX), X6
	MULPS  112(SI), X6
	ADDPS  X14, X6
	MOVUPS 16(BX), X7
	MULPS  112(SI), X7
	ADDPS  X15, X7
	ADDQ   $128, SI
	ADDQ   DX, BX
	SUBQ   $2, CX
	JNZ    pairs

store:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, (DI)(R8*1)
	MOVUPS X3, 16(DI)(R8*1)
	MOVUPS X4, (R9)
	MOVUPS X5, 16(R9)
	MOVUPS X6, (R9)(R8*1)
	MOVUPS X7, 16(R9)(R8*1)
	ADDQ $32, R10
	ADDQ $32, DI
	DECQ R11
	JNZ  tile
	RET
