package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// The ReLU mask and 2×2 max-pool loops compute their results without
// branching on the data. These tests pin them to the per-element rules
// of the branching loops they replaced, kept here as references, on the
// values where a bit trick could go wrong: signed zeros, subnormals, the
// largest finite values, infinities and NaNs of both signs and kinds.

// reluSpecials are the float32 bit patterns the ReLU tests cycle through.
var reluSpecials = []uint32{
	0x0000_0000, 0x8000_0000, // ±0
	0x0000_0001, 0x8000_0001, // ±smallest subnormal
	0x7f7f_ffff, 0xff7f_ffff, // ±MaxFloat32
	0x7f80_0000, 0xff80_0000, // ±Inf
	0x7fc0_0000, 0xffc0_0001, // quiet NaNs
	0x7f80_0001, 0xff80_0123, // signalling NaNs
	0x3f80_0000, 0xbf80_0000, // ±1
}

// refReLUForward is the branching forward loop: keep v when v > 0,
// otherwise record a cleared mask bit and write +0.
func refReLUForward(d []float32) []bool {
	mask := make([]bool, len(d))
	for i, v := range d {
		if v > 0 {
			mask[i] = true
		} else {
			mask[i] = false
			d[i] = 0
		}
	}
	return mask
}

// refReLUBackward is the branching backward loop: +0 where the mask is
// clear, the gradient untouched elsewhere.
func refReLUBackward(mask []bool, d []float32) {
	for i := range d {
		if !mask[i] {
			d[i] = 0
		}
	}
}

// reluCase returns an input of length n cycling through reluSpecials
// (offset so every length starts somewhere else) and a gradient that
// includes -0 and NaN.
func reluCase(n int) (x, dy *tensor.Tensor) {
	x, dy = tensor.New(1, n), tensor.New(1, n)
	s := rng.New(uint64(n) + 1)
	for i := range n {
		x.Data()[i] = math.Float32frombits(reluSpecials[(i+n)%len(reluSpecials)])
		switch i % 5 {
		case 0:
			dy.Data()[i] = float32(math.Copysign(0, -1))
		case 1:
			dy.Data()[i] = math.Float32frombits(0xffc0_0042)
		default:
			dy.Data()[i] = float32(s.Norm())
		}
	}
	return x, dy
}

// checkBits fails unless got and want hold the same bits.
func checkBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s[%d] = %#08x, want %#08x", what, i, g, w)
		}
	}
}

// checkMask fails unless every bit of m up to len(want) matches want.
func checkMask(t *testing.T, what string, m bitmask, want []bool) {
	t.Helper()
	if len(m) != (len(want)+63)/64 {
		t.Fatalf("%s: %d mask words for %d elements", what, len(m), len(want))
	}
	for i, w := range want {
		if got := m[i/64]>>(i%64)&1 == 1; got != w {
			t.Fatalf("%s bit %d = %v, want %v", what, i, got, w)
		}
	}
}

func TestReLUMatchesScalarRule(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		x, dy := reluCase(n)

		want := append([]float32(nil), x.Data()...)
		wantMask := refReLUForward(want)
		wantDx := append([]float32(nil), dy.Data()...)
		refReLUBackward(wantMask, wantDx)

		r := NewReLU("relu")
		y := r.Forward(detDev(), x, true)
		checkBits(t, "ReLU forward", y.Data(), want)
		checkMask(t, "ReLU mask", r.mask, wantMask)
		checkBits(t, "ReLU backward", r.Backward(detDev(), dy).Data(), wantDx)

		// Identity-shortcut residual around a rate-0 dropout, which
		// returns its input: the block's pre-activation sum is x + x.
		res := NewResidual("res", NewSequential("body", NewDropout("id", 0)), nil)
		res.Init(rng.New(1))
		wantSum := append([]float32(nil), x.Data()...)
		for i := range wantSum {
			wantSum[i] += wantSum[i]
		}
		wantMask = refReLUForward(wantSum)
		wantDsum := append([]float32(nil), dy.Data()...)
		refReLUBackward(wantMask, wantDsum)
		for i := range wantDsum {
			wantDsum[i] += wantDsum[i] // body gradient plus shortcut gradient
		}
		y = res.Forward(detDev(), x.Clone(), true)
		checkBits(t, "Residual forward", y.Data(), wantSum)
		checkMask(t, "Residual mask", res.mask, wantMask)
		checkBits(t, "Residual backward", res.Backward(detDev(), dy).Data(), wantDsum)
	}
}

// refMaxPool is the generic window loop the 2×2 pool replaced, at window
// 2: each window scanned row-major from its first element, replaced only
// by a strictly greater value.
func refMaxPool(xd []float32, nc, h, w int) (out []float32, argmax []int) {
	const window = 2
	oh, ow := h/window, w/window
	out, argmax = make([]float32, nc*oh*ow), make([]int, nc*oh*ow)
	for c := 0; c < nc; c++ {
		inBase := c * h * w
		outBase := c * oh * ow
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				bestIdx := inBase + (i*window)*w + j*window
				best := xd[bestIdx]
				for di := 0; di < window; di++ {
					rowBase := inBase + (i*window+di)*w + j*window
					for dj := 0; dj < window; dj++ {
						if v := xd[rowBase+dj]; v > best {
							best, bestIdx = v, rowBase+dj
						}
					}
				}
				out[outBase+i*ow+j] = best
				argmax[outBase+i*ow+j] = bestIdx
			}
		}
	}
	return out, argmax
}

func TestMaxPool2DMatchesScalarRule(t *testing.T) {
	nan, nan2 := math.Float32frombits(0x7fc0_0001), math.Float32frombits(0xff80_0007)
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	// Named windows, row-major: ties, NaN first and later, -0 against
	// +0 in both orders, and both infinities.
	windows := [][4]float32{
		{1, 1, 1, 1}, {1, 2, 2, 1}, {3, 1, 3, 3}, {2, 1, 1, 2},
		{nan, 5, 6, 7}, {5, nan, 6, 7}, {5, 6, nan, 7}, {5, 6, 7, nan}, {nan, nan2, 1, 2},
		{negZero, 0, 0, negZero}, {0, negZero, negZero, 0}, {negZero, -1, -2, -3},
		{inf, 1, inf, 2}, {-inf, -inf, -inf, -inf}, {1, -inf, inf, nan}, {-inf, nan, inf, 0},
	}
	// Then random windows over the same values.
	pool := []float32{nan, nan2, negZero, 0, 1, 2, -1, inf, -inf, 1}
	s := rng.New(9)
	for range 200 {
		var win [4]float32
		for k := range win {
			win[k] = pool[s.Intn(len(pool))]
		}
		windows = append(windows, win)
	}
	// Lay the windows out as (nc, 2, 8) images: four windows per plane.
	const h, w = 2, 8
	nc := (len(windows) + 3) / 4
	x := tensor.New(1, nc, h, w)
	xd := x.Data()
	for k, win := range windows {
		base := k / 4 * h * w
		j := 2 * (k % 4)
		xd[base+j], xd[base+j+1], xd[base+w+j], xd[base+w+j+1] = win[0], win[1], win[2], win[3]
	}

	want, wantArg := refMaxPool(xd, nc, h, w)
	p := NewMaxPool2D("pool")
	y := p.Forward(detDev(), x, true)
	checkBits(t, "MaxPool2D forward", y.Data(), want)
	for i, a := range wantArg {
		if p.argmax[i] != a {
			t.Fatalf("MaxPool2D argmax[%d] = %d, want %d (window %v)", i, p.argmax[i], a, windows[i])
		}
	}

	dy := tensor.New(1, nc, h/2, w/2)
	rng.New(10).FillNorm(dy.Data(), 0, 1)
	wantDx := make([]float32, len(xd))
	for i, src := range wantArg {
		wantDx[src] += dy.Data()[i]
	}
	checkBits(t, "MaxPool2D backward", p.Backward(detDev(), dy).Data(), wantDx)
}
