package nn

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// convBackward runs two forward/backward steps of a fresh, seeded conv
// layer on a fresh device under the given worker budget, and returns the
// accumulated weight and bias gradients, the last input gradient, and how
// many tasks went to a pool helper meanwhile.
func convBackward(t *testing.T, workers int, cfg device.Config, mode device.Mode, inC, outC, k, stride, pad int, x, dy *tensor.Tensor) (dW, dB, dx *tensor.Tensor, helped uint64) {
	t.Helper()
	sched.SetWorkers(workers)
	defer sched.SetWorkers(0)
	c := NewConv2D("c", inC, outC, k, stride, pad)
	c.Init(rng.New(5))
	dev := device.New(cfg, mode, rng.New(6))
	before := sched.Handoffs()
	for step := 0; step < 2; step++ {
		c.Forward(dev, x, true)
		dx = c.Backward(dev, dy)
	}
	return c.W.Grad, c.B.Grad, dx, sched.Handoffs() - before
}

// TestConvBackwardHelperMatchesInline: Conv2D.Backward gives the same
// bits with its weight-gradient GEMM on a pool helper (a worker budget of
// 2) as inline (a budget of 1), on ResNet-18's stem, 3×3 stride-2 and 1×1
// shortcut shapes and SmallCNN's last conv, in every device mode class,
// with NaN, -0 and ±Inf in the input and the gradient.
func TestConvBackwardHelperMatchesInline(t *testing.T) {
	shapes := []struct{ n, inC, h, outC, k, stride, pad int }{
		{32, 3, 8, 8, 3, 1, 1},
		{32, 8, 8, 16, 3, 2, 1},
		{32, 8, 8, 16, 1, 2, 0},
		{32, 16, 2, 16, 3, 1, 1},
	}
	for si, sh := range shapes {
		s := rng.New(uint64(50 + si))
		x := tensor.New(sh.n, sh.inC, sh.h, sh.h)
		s.FillNorm(x.Data(), 0, 1)
		oh := (sh.h+2*sh.pad-sh.k)/sh.stride + 1
		dy := tensor.New(sh.n, sh.outC, oh, oh)
		s.FillNorm(dy.Data(), 0, 1)
		for _, d := range [][]float32{x.Data(), dy.Data()} {
			d[s.Intn(len(d))] = float32(math.NaN())
			d[s.Intn(len(d))] = float32(math.Copysign(0, -1))
			d[s.Intn(len(d))] = float32(math.Inf(1))
			d[s.Intn(len(d))] = float32(math.Inf(-1))
		}
		for _, part := range []struct {
			cfg  device.Config
			mode device.Mode
		}{{device.V100, device.Deterministic}, {device.V100, device.Default}, {device.RTX5000TC, device.Default}} {
			wantW, wantB, wantX, inline := convBackward(t, 1, part.cfg, part.mode, sh.inC, sh.outC, sh.k, sh.stride, sh.pad, x, dy)
			gotW, gotB, gotX, helped := convBackward(t, 2, part.cfg, part.mode, sh.inC, sh.outC, sh.k, sh.stride, sh.pad, x, dy)
			if inline != 0 || helped != 2 {
				t.Fatalf("shape %d: %d and %d handoffs at budgets 1 and 2, want 0 and 2", si, inline, helped)
			}
			for _, c := range []struct {
				what      string
				got, want *tensor.Tensor
			}{{"dW", gotW, wantW}, {"dB", gotB, wantB}, {"dx", gotX, wantX}} {
				if !tensor.Equal(c.got, c.want) {
					t.Fatalf("shape %d %s/%s: %s with the helper differs from inline", si, part.cfg.Name, part.mode, c.what)
				}
			}
		}
	}
}

// TestConvWeightGradPanicReachesCaller: a weight-gradient GEMM that
// panics on the pool helper re-panics on the goroutine that joins it, as
// a *sched.PanicError, instead of crashing the process. The GEMM is made
// to fail by re-pointing its input's header at a one-pixel image after
// the shape checks passed.
func TestConvWeightGradPanicReachesCaller(t *testing.T) {
	sched.SetWorkers(2)
	defer sched.SetWorkers(0)
	g := tensor.ConvGeom{Batch: 2, InC: 3, InH: 6, InW: 6, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	var hdr tensor.Tensor
	x := tensor.FromSliceInto(&hdr, make([]float32, g.Batch*g.InC*g.InH*g.InW), g.Batch, g.InC, g.InH, g.InW)
	dy := tensor.New(g.OutC, g.ColCols())
	dev := device.New(device.V100, device.Default, rng.New(1))
	job := dev.PrepareMatMulIm2ColT(dy, x, g)
	tensor.FromSliceInto(&hdr, make([]float32, 1), 1, 1, 1, 1)

	var h sched.Handoff
	if !h.Go(job) {
		t.Fatal("the GEMM ran inline with a token free")
	}
	defer func() {
		if _, ok := recover().(*sched.PanicError); !ok {
			t.Fatal("the helper's panic did not reach the join as a *sched.PanicError")
		}
	}()
	h.Join()
	t.Fatal("Join returned after the helper's GEMM panicked")
}
