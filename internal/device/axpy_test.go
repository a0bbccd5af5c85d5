package device

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// scalarAxpy is the reference axpy: one rounded multiply, then one add,
// per element in index order.
func scalarAxpy(a float32, x, y []float32) {
	for j := range y {
		y[j] += float32(a * x[j])
	}
}

// axpyOperand draws a value from the classes the packed loop must treat
// exactly like the scalar one: signed zeros, subnormals, infinities,
// 1e-4-scale values, ordinary normals and the occasional NaN.
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
		if s.Intn(4) == 0 {
			return float32(math.NaN())
		}
		return float32(s.Norm()) * 3e38 // products overflow
	default:
		return float32(s.Norm())
	}
}

// sameFloat reports bit equality, treating any two NaNs as equal: the NaN
// payload an x86 arithmetic instruction propagates depends on operand
// order, which the IEEE result does not.
func sameFloat(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

func TestAxpyMatchesScalar(t *testing.T) {
	lengths := []int{511, 512, 513}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	multipliers := []float32{
		1.5, -0.3, 7e-5, 1e-39, float32(math.Copysign(0, -1)), 3e38, float32(math.Inf(-1)),
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
					if !sameFloat(ybuf[i], want[i]) {
						t.Fatalf("n=%d yoff=%d xoff=%d a=%g: y[%d]=%g (%#x), scalar %g (%#x)",
							n, off, xo, a, i-off, ybuf[i], math.Float32bits(ybuf[i]), want[i], math.Float32bits(want[i]))
					}
				}
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
