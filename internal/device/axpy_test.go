package device

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// scalarAxpy is the reference axpy: one rounded multiply, then one add,
// per element in index order, with refMulAdd's NaN rule.
func scalarAxpy(a float32, x, y []float32) {
	for j := range y {
		y[j] = refMulAdd(y[j], a, x[j])
	}
}

// refMulAdd returns acc + b·a as the GEMM kernels compute it: the product
// rounded, then the sum rounded. Which NaN an x86 arithmetic instruction
// propagates when both operands are NaN depends on operand order, and Go
// fixes no order for its own arithmetic, so the rule the kernels implement
// is spelled out here: a NaN product wins over a NaN accumulator, and a
// NaN b over a NaN a; a propagated NaN comes out quieted.
func refMulAdd(acc, a, b float32) float32 {
	var prod float32
	switch {
	case b != b:
		prod = quietNaN(b)
	case a != a:
		prod = quietNaN(a)
	default:
		prod = float32(b * a) // NaN here only from 0·Inf: the default NaN
	}
	switch {
	case prod != prod:
		return prod
	case acc != acc:
		return quietNaN(acc)
	}
	return prod + acc
}

// quietNaN sets the quiet bit of a NaN, as an x86 arithmetic instruction
// does when it propagates one.
func quietNaN(x float32) float32 {
	return math.Float32frombits(math.Float32bits(x) | 0x0040_0000)
}

// axpyOperand draws a value from the classes the packed loop must treat
// exactly like the scalar one: signed zeros, subnormals, infinities,
// 1e-4-scale values, ordinary normals and NaNs with distinct payloads.
func axpyOperand(s *rng.Stream) float32 {
	switch s.Intn(10) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return float32(s.Norm()) * 1e-39 // subnormal
	case 3:
		return math.SmallestNonzeroFloat32
	case 4:
		return float32(math.Inf(1 - 2*s.Intn(2)))
	case 5:
		return float32(s.Norm()) * 1e-4
	case 6:
		if s.Intn(2) == 0 {
			// Quiet or signalling, either sign, payload 1..255.
			return math.Float32frombits(0x7f80_0000 | uint32(s.Intn(2))<<31 |
				uint32(s.Intn(2))<<22 | uint32(1+s.Intn(255)))
		}
		return float32(s.Norm()) * 3e38 // products overflow
	default:
		return float32(s.Norm())
	}
}

func TestAxpyMatchesScalar(t *testing.T) {
	lengths := []int{511, 512, 513}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	multipliers := []float32{
		1.5, -0.3, 7e-5, 1e-39, float32(math.Copysign(0, -1)), 3e38, float32(math.Inf(-1)),
		math.Float32frombits(0x7fa0_0003), // signalling NaN
	}
	const guard = 5 // elements past the end of y that must stay untouched
	s := rng.New(13)
	for _, n := range lengths {
		for off := 0; off <= 3; off++ {
			for ai, a := range multipliers {
				xbuf := make([]float32, off+n+guard)
				ybuf := make([]float32, off+n+guard)
				for i := range xbuf {
					xbuf[i] = axpyOperand(s)
					ybuf[i] = axpyOperand(s)
				}
				want := append([]float32(nil), ybuf...)
				// x starts at its own offset, so the two operands'
				// alignments differ, and runs past the end of y.
				xo := (off + ai) % 4
				axpy(a, xbuf[xo:], ybuf[off:off+n])
				scalarAxpy(a, xbuf[xo:], want[off:off+n])
				for i := range ybuf {
					if math.Float32bits(ybuf[i]) != math.Float32bits(want[i]) {
						t.Fatalf("n=%d yoff=%d xoff=%d a=%g: y[%d]=%g (%#x), scalar %g (%#x)",
							n, off, xo, a, i-off, ybuf[i], math.Float32bits(ybuf[i]), want[i], math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestAxpyNaNPayloadIndependentOfLane: with a NaN in both y and x, every
// lane — the 8-wide loop, the 4-wide step and the scalar tail — returns the
// product's NaN, so the output bits do not depend on where an element
// falls in the panel.
func TestAxpyNaNPayloadIndependentOfLane(t *testing.T) {
	const yNaN, xNaN = 0x7fc0_0001, 0x7fc0_0002
	for n := 1; n <= 19; n++ {
		x := make([]float32, n)
		y := make([]float32, n)
		for i := range y {
			x[i] = math.Float32frombits(xNaN)
			y[i] = math.Float32frombits(yNaN)
		}
		axpy(1.5, x, y)
		for i, v := range y {
			if got := math.Float32bits(v); got != xNaN {
				t.Fatalf("n=%d: y[%d] = %#x, want the product's NaN %#x", n, i, got, uint32(xNaN))
			}
		}
	}
}

func TestAxpyShortXPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("axpy accepted len(x) < len(y)")
		}
	}()
	axpy(1, make([]float32, 3), make([]float32, 4))
}
