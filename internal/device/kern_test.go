package device

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestKern4x8MatchesScalar pins the register tile against refMulAdd
// applied element by element in k order: kc from 0 to past panelKC (odd
// and even), one to three tiles per call, B and C at unaligned offsets
// with row strides wider than the tiles, and operands with signed zeros,
// subnormals, infinities, overflowing products and NaNs. A holds no exact
// zero (the caller's precondition). Elements of C outside the tiles must
// keep their bits.
func TestKern4x8MatchesScalar(t *testing.T) {
	s := rng.New(31)
	random := func(int) float32 { return axpyOperand(s) }
	nonZero := func(int) float32 {
		v := axpyOperand(s)
		for v == 0 {
			v = axpyOperand(s)
		}
		return v
	}
	for kc := 0; kc <= 130; kc++ {
		checkKern4x8(t, kc, 1+kc%3, nonZero, random, random)
	}
	// A NaN accumulator meets a NaN product at every step and lane, on the
	// odd-kc first step and on the paired steps: each element must come
	// out with the payload of its last B value.
	nan := func(tag uint32) func(int) float32 {
		return func(i int) float32 { return math.Float32frombits(0x7fc0_0000 | tag<<16 | uint32(i)) }
	}
	for kc := 1; kc <= 4; kc++ {
		checkKern4x8(t, kc, 2, func(int) float32 { return 1.5 }, nan(1), nan(2))
	}
}

// checkKern4x8 runs one kern4x8 call on operands drawn from the given
// generators (called with the element's index) and compares every element
// of C, inside and around the tiles, with the scalar reference.
func checkKern4x8(t *testing.T, kc, tiles int, aVal, bVal, cVal func(int) float32) {
	t.Helper()
	ldb := 8*tiles + kc%5
	ldc := 8*tiles + 3
	bOff, cOff := kc%3, 1+kc%4

	a := align16(make([]float32, 16*kc+3))[:16*kc]
	for i := 0; i < 4*kc; i++ {
		v := aVal(i)
		l := a[4*i : 4*i+4]
		l[0], l[1], l[2], l[3] = v, v, v, v
	}
	b := make([]float32, bOff+kc*ldb)
	for i := range b {
		b[i] = bVal(i)
	}
	c := make([]float32, cOff+4*ldc+5)
	for i := range c {
		c[i] = cVal(i)
	}
	want := append([]float32(nil), c...)
	for r := 0; r < 4; r++ {
		for j := 0; j < 8*tiles; j++ {
			e := &want[cOff+r*ldc+j]
			for p := 0; p < kc; p++ {
				*e = refMulAdd(*e, a[p*16+r*4], b[bOff+p*ldb+j])
			}
		}
	}

	kern4x8(kc, a, b[bOff:], ldb, c[cOff:], ldc, tiles)
	for i := range c {
		if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
			t.Fatalf("kc=%d tiles=%d: c[%d] (offset %d from the tile origin, ldc %d) = %g (%#x), scalar %g (%#x)",
				kc, tiles, i, i-cOff, ldc, c[i], math.Float32bits(c[i]), want[i], math.Float32bits(want[i]))
		}
	}
}
