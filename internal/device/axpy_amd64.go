package device

// axpy computes y[j] += a*x[j] for every j. On amd64 the loop runs in
// SSE2 assembly (axpy_amd64.s), four lanes at a time: each lane performs
// one individually rounded float32 multiply and then one add, the same two
// IEEE operations, under the same rounding mode, as the scalar MULSS/ADDSS
// the compiler emits for axpy_other.go. Results are therefore bit-identical
// to the scalar loop in index order. No fused multiply-add is used: fusing
// skips the product's rounding and would change output bits.
func axpy(a float32, x, y []float32) {
	x = x[:len(y)] // panics on a short x before the assembly runs
	axpySSE(a, x, y)
}

// axpySSE is implemented in axpy_amd64.s; it requires len(x) >= len(y).
//
//go:noescape
func axpySSE(a float32, x, y []float32)
