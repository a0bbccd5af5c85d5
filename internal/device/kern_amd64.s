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

// func kern4x16AVX(kc int, a, b *float32, ldb int, c *float32, ldc, pairs int)
//
// kern4x8SSE on twice the lanes: for each of pairs 16-column tiles, the
// 4×16 block of C (two 8-lane halves per row, row r in Y(2r), Y(2r+1))
// lives in Y0..Y7 for the whole K block. Each k step loads the two B
// halves into Y8/Y9, broadcasts lane 0 of each row's group of the strip
// into Y10..Y13 and, per row and half, computes prod = B*a into Y14/Y15
// and acc = prod + acc. B is the first source of VMULPS and the product
// the first source of VADDPS, so NaN payloads propagate as in kern4x8SSE.
// No fused multiply-add: each lane is rounded after the multiply and again
// after the add, as MULPS/ADDPS do. VZEROUPPER before returning keeps the
// SSE code that follows free of the AVX-SSE transition penalty.
// kc >= 1, pairs >= 1.
TEXT ·kern4x16AVX(SB), NOSPLIT, $0-56
	MOVQ ldb+24(FP), DX
	SHLQ $2, DX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R8
	SHLQ $2, R8
	MOVQ b+16(FP), R10 // B at the current tile
	MOVQ pairs+48(FP), R11

tile16:
	MOVQ    kc+0(FP), CX
	MOVQ    a+8(FP), SI
	MOVQ    R10, BX
	LEAQ    (DI)(R8*2), R9 // row 2
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS 32(DI)(R8*1), Y3
	VMOVUPS (R9), Y4
	VMOVUPS 32(R9), Y5
	VMOVUPS (R9)(R8*1), Y6
	VMOVUPS 32(R9)(R8*1), Y7

step16:
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VBROADCASTSS 0(SI), Y10
	VBROADCASTSS 16(SI), Y11
	VBROADCASTSS 32(SI), Y12
	VBROADCASTSS 48(SI), Y13
	VMULPS       Y10, Y8, Y14
	VMULPS       Y10, Y9, Y15
	VADDPS       Y0, Y14, Y0
	VADDPS       Y1, Y15, Y1
	VMULPS       Y11, Y8, Y14
	VMULPS       Y11, Y9, Y15
	VADDPS       Y2, Y14, Y2
	VADDPS       Y3, Y15, Y3
	VMULPS       Y12, Y8, Y14
	VMULPS       Y12, Y9, Y15
	VADDPS       Y4, Y14, Y4
	VADDPS       Y5, Y15, Y5
	VMULPS       Y13, Y8, Y14
	VMULPS       Y13, Y9, Y15
	VADDPS       Y6, Y14, Y6
	VADDPS       Y7, Y15, Y7
	ADDQ         $64, SI
	ADDQ         DX, BX
	DECQ         CX
	JNZ          step16

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (R9)
	VMOVUPS Y5, 32(R9)
	VMOVUPS Y6, (R9)(R8*1)
	VMOVUPS Y7, 32(R9)(R8*1)
	ADDQ    $64, R10
	ADDQ    $64, DI
	DECQ    R11
	JNZ     tile16
	VZEROUPPER
	RET

// func cpuAVX() bool
//
// Reports whether the CPU has AVX (CPUID.1:ECX bit 28) and the OS saves
// the YMM state across context switches: OSXSAVE (CPUID.1:ECX bit 27) and
// XCR0 bits 1 (SSE) and 2 (AVX) both set.
TEXT ·cpuAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET
