package device

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestKern4x8MatchesScalar pins both register tiles, the 4×16 AVX one
// (skipped on hosts without AVX) and the 4×8 SSE2 one, against refMulAdd
// applied element by element in k order: kc from 0 to past panelKC (odd
// and even), one to five tiles per call (so the AVX path runs paired tiles
// with and without an SSE2 tail), B and C at unaligned offsets with row
// strides wider than the tiles, and operands with signed zeros,
// subnormals, infinities, overflowing products and NaNs. A holds no exact
// zero (the caller's precondition). Elements of C outside the tiles must
// keep their bits.
func TestKern4x8MatchesScalar(t *testing.T) {
	for _, path := range []struct {
		name string
		avx  bool
	}{{"avx", true}, {"sse2", false}} {
		t.Run(path.name, func(t *testing.T) {
			setAVX(t, path.avx)
			kern4x8MatchesScalar(t)
		})
	}
}

func kern4x8MatchesScalar(t *testing.T) {
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
		checkKern4x8(t, kc, 1+kc%5, nonZero, random, random)
	}
	// A NaN accumulator meets a NaN product at every step and lane, and
	// in the second pass a NaN A meets a NaN B in every multiply, on
	// paired and single tiles and for odd and even kc: each element must
	// come out with the payload of its last B value.
	nan := func(tag uint32) func(int) float32 {
		return func(i int) float32 { return math.Float32frombits(0x7fc0_0000 | tag<<16 | uint32(i)) }
	}
	for _, aVal := range []func(int) float32{func(int) float32 { return 1.5 }, nan(3)} {
		for kc := 1; kc <= 4; kc++ {
			checkKern4x8(t, kc, 3, aVal, nan(1), nan(2))
		}
	}
}

// The GEMM bit-identity tests run on whichever tile the host picks (AVX
// where it exists); these reruns turn the AVX tile off so AVX hosts check
// the SSE2 tile through the whole loop nest too.

func TestMatMulRandomizedVsReferenceSSE2(t *testing.T) {
	setAVX(t, false)
	TestMatMulRandomizedVsReference(t)
}

func TestMatMulBitIdenticalToReferenceSSE2(t *testing.T) {
	setAVX(t, false)
	TestMatMulBitIdenticalToReference(t)
}

func TestMatMulTensorCoreFP16ZeroSkipSSE2(t *testing.T) {
	setAVX(t, false)
	TestMatMulTensorCoreFP16ZeroSkip(t)
}

func TestFusedIm2ColGEMMBitIdenticalSSE2(t *testing.T) {
	setAVX(t, false)
	TestFusedIm2ColGEMMBitIdentical(t)
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
