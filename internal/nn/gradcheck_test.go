package nn

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// lossOf runs a forward pass and returns the scalar loss.
func lossOf(dev *device.Device, net *Sequential, x *tensor.Tensor, labels []int) float64 {
	logits := net.Forward(dev, x.Clone(), true)
	loss, _ := SoftmaxCrossEntropy(dev, logits, labels)
	return loss
}

// checkGradients compares analytic parameter gradients against central
// finite differences. Float32 forward passes limit attainable precision, so
// tolerances are loose but still catch sign errors, missing terms, and
// off-by-scale bugs.
func checkGradients(t *testing.T, net *Sequential, x *tensor.Tensor, labels []int, samples int) {
	t.Helper()
	dev := device.New(device.CPU, device.Deterministic, nil)
	net.ZeroGrad()
	logits := net.Forward(dev, x.Clone(), true)
	_, dlogits := SoftmaxCrossEntropy(dev, logits, labels)
	net.Backward(dev, dlogits)

	numericAt := func(p *Param, i int, eps float64) float64 {
		vd := p.Value.Data()
		orig := vd[i]
		vd[i] = orig + float32(eps)
		lp := lossOf(dev, net, x, labels)
		vd[i] = orig - float32(eps)
		lm := lossOf(dev, net, x, labels)
		vd[i] = orig
		return (lp - lm) / (2 * eps)
	}

	sampler := rng.New(12345)
	for _, p := range net.Params() {
		gd := p.Grad.Data()
		n := p.Value.Len()
		for s := 0; s < samples && s < n; s++ {
			i := sampler.Intn(n)
			// Two step sizes: if the estimates disagree with each other the
			// perturbation crosses a ReLU/max kink and the sample is not a
			// valid derivative estimate — skip it.
			n1 := numericAt(p, i, 1e-2)
			n2 := numericAt(p, i, 2.5e-3)
			analytic := float64(gd[i])
			scale := math.Max(math.Abs(n2), math.Abs(analytic))
			if scale < 1e-4 {
				continue // both effectively zero at float32 resolution
			}
			if math.Abs(n1-n2) > 0.2*scale {
				continue // kink crossing: finite difference unreliable here
			}
			diff := math.Abs(n2 - analytic)
			if diff/scale > 0.15 && diff > 1e-3 {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, n2)
			}
		}
	}
}

func smallInput(seed uint64, n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	rng.New(seed).FillNorm(x.Data(), 0, 1)
	return x
}

func TestGradCheckDense(t *testing.T) {
	net := NewSequential("dense",
		NewFlatten("flat"),
		NewDense("fc1", 12, 8),
		NewReLU("relu1"),
		NewDense("fc2", 8, 3),
	)
	net.Init(rng.New(1))
	x := smallInput(2, 4, 3, 2, 2)
	checkGradients(t, net, x, []int{0, 1, 2, 1}, 12)
}

func TestGradCheckConv(t *testing.T) {
	net := NewSequential("conv",
		NewConv2D("c1", 2, 3, 3, 1, 1),
		NewReLU("r1"),
		NewFlatten("flat"),
		NewDense("fc", 3*4*4, 3),
	)
	net.Init(rng.New(3))
	x := smallInput(4, 2, 2, 4, 4)
	checkGradients(t, net, x, []int{0, 2}, 12)
}

func TestGradCheckConvStride(t *testing.T) {
	net := NewSequential("convs",
		NewConv2D("c1", 1, 2, 3, 2, 1),
		NewFlatten("flat"),
		NewDense("fc", 2*3*3, 2),
	)
	net.Init(rng.New(4))
	x := smallInput(5, 2, 1, 6, 6)
	checkGradients(t, net, x, []int{1, 0}, 12)
}

func TestGradCheckBatchNorm(t *testing.T) {
	net := NewSequential("bn",
		NewConv2D("c1", 1, 4, 3, 1, 1),
		NewBatchNorm("bn1", 4),
		NewReLU("r1"),
		NewFlatten("flat"),
		NewDense("fc", 4*4*4, 3),
	)
	net.Init(rng.New(5))
	x := smallInput(6, 4, 1, 4, 4)
	checkGradients(t, net, x, []int{0, 1, 2, 0}, 10)
}

func TestGradCheckMaxPool(t *testing.T) {
	net := NewSequential("pool",
		NewConv2D("c1", 1, 3, 3, 1, 1),
		NewMaxPool2D("p1"),
		NewFlatten("flat"),
		NewDense("fc", 3*2*2, 2),
	)
	net.Init(rng.New(7))
	x := smallInput(8, 2, 1, 4, 4)
	checkGradients(t, net, x, []int{0, 1}, 10)
}

func TestGradCheckGlobalAvgPool(t *testing.T) {
	net := NewSequential("gap",
		NewConv2D("c1", 2, 4, 3, 1, 1),
		NewGlobalAvgPool("gap1"),
		NewDense("fc", 4, 3),
	)
	net.Init(rng.New(9))
	x := smallInput(10, 2, 2, 4, 4)
	checkGradients(t, net, x, []int{2, 0}, 10)
}

func TestGradCheckResidualIdentity(t *testing.T) {
	body := NewSequential("body",
		NewConv2D("c1", 3, 3, 3, 1, 1),
		NewBatchNorm("bn1", 3),
		NewReLU("r1"),
		NewConv2D("c2", 3, 3, 3, 1, 1),
		NewBatchNorm("bn2", 3),
	)
	net := NewSequential("res",
		NewResidual("block", body, nil),
		NewGlobalAvgPool("gap"),
		NewDense("fc", 3, 2),
	)
	net.Init(rng.New(11))
	x := smallInput(12, 2, 3, 4, 4)
	checkGradients(t, net, x, []int{0, 1}, 10)
}

func TestGradCheckResidualProjection(t *testing.T) {
	body := NewSequential("body",
		NewConv2D("c1", 2, 4, 3, 2, 1),
		NewBatchNorm("bn1", 4),
		NewReLU("r1"),
		NewConv2D("c2", 4, 4, 3, 1, 1),
		NewBatchNorm("bn2", 4),
	)
	short := NewSequential("short",
		NewConv2D("proj", 2, 4, 1, 2, 0),
		NewBatchNorm("projbn", 4),
	)
	net := NewSequential("res",
		NewResidual("block", body, short),
		NewGlobalAvgPool("gap"),
		NewDense("fc", 4, 2),
	)
	net.Init(rng.New(13))
	x := smallInput(14, 2, 2, 4, 4)
	checkGradients(t, net, x, []int{1, 0}, 10)
}
