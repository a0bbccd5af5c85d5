#include "textflag.h"

// func axpySSE(a float32, x, y []float32)
//
// y[j] += a*x[j] for j < len(y); the caller guarantees len(x) >= len(y).
// Eight floats per iteration (two unaligned 4-lane MULPS/ADDPS pairs),
// then one 4-lane step, then a MULSS/ADDSS tail. Every lane rounds its
// product and then its sum exactly as the scalar loop does, and every lane
// adds as prod + y (the product is the destination), so when both are NaN
// the product's payload wins at any lane position.
TEXT ·axpySSE(SB), NOSPLIT, $0-56
	MOVSS  a+0(FP), X0
	SHUFPS $0x00, X0, X0 // broadcast a to all four lanes
	MOVQ   x_base+8(FP), SI
	MOVQ   y_base+32(FP), DI
	MOVQ   y_len+40(FP), CX
	CMPQ   CX, $8
	JB     quad

oct:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MULPS  X0, X1
	MULPS  X0, X2
	MOVUPS (DI), X3
	MOVUPS 16(DI), X4
	ADDPS  X3, X1
	ADDPS  X4, X2
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	SUBQ   $8, CX
	CMPQ   CX, $8
	JAE    oct

quad:
	CMPQ   CX, $4
	JB     tail
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X3
	ADDPS  X3, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX

tail:
	TESTQ CX, CX
	JZ    done

one:
	MOVSS (SI), X1
	MULSS X0, X1
	ADDSS (DI), X1
	MOVSS X1, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   one

done:
	RET
