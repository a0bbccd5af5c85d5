package nn

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func detDev() *device.Device { return device.New(device.CPU, device.Deterministic, nil) }

func TestConvKnownValues(t *testing.T) {
	// 1 input channel, 1 output channel, 2x2 all-ones kernel, bias 1:
	// output = sum of each window + 1.
	c := NewConv2D("c", 1, 1, 2, 1, 0)
	c.W.Value.Fill(1)
	c.B.Value.Fill(1)
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	y := c.Forward(detDev(), x, false)
	want := []float32{1 + 2 + 4 + 5 + 1, 2 + 3 + 5 + 6 + 1, 4 + 5 + 7 + 8 + 1, 5 + 6 + 8 + 9 + 1}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("conv[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestConvOutputShape(t *testing.T) {
	c := NewConv2D("c", 3, 8, 3, 2, 1)
	c.Init(rng.New(1))
	x := tensor.New(2, 3, 8, 8)
	y := c.Forward(detDev(), x, false)
	wantShape := []int{2, 8, 4, 4}
	for i, d := range y.Shape() {
		if d != wantShape[i] {
			t.Fatalf("conv output shape %v, want %v", y.Shape(), wantShape)
		}
	}
}

func TestConvChannelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("channel mismatch did not panic")
		}
	}()
	c := NewConv2D("c", 3, 8, 3, 1, 1)
	c.Forward(detDev(), tensor.New(1, 2, 4, 4), false)
}

func TestDenseKnownValues(t *testing.T) {
	d := NewDense("fc", 2, 2)
	copy(d.W.Value.Data(), []float32{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.B.Value.Data(), []float32{10, 20})
	x := tensor.FromSlice([]float32{1, 1}, 1, 2)
	y := d.Forward(detDev(), x, false)
	// y = x·Wᵀ + b = [1+2+10, 3+4+20]
	if y.At(0, 0) != 13 || y.At(0, 1) != 27 {
		t.Fatalf("dense output %v", y.Data())
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU("r")
	x := tensor.FromSlice([]float32{-1, 0, 2}, 1, 3)
	y := r.Forward(detDev(), x, true)
	if y.At(0, 0) != 0 || y.At(0, 1) != 0 || y.At(0, 2) != 2 {
		t.Fatalf("relu forward %v", y.Data())
	}
	if x.At(0, 0) != -1 {
		t.Fatal("ReLU mutated its input")
	}
	dy := tensor.FromSlice([]float32{5, 5, 5}, 1, 3)
	dx := r.Backward(detDev(), dy)
	if dx.At(0, 0) != 0 || dx.At(0, 1) != 0 || dx.At(0, 2) != 5 {
		t.Fatalf("relu backward %v", dx.Data())
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2D("p")
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	y := p.Forward(detDev(), x, true)
	want := []float32{4, 8, 12, 16}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("maxpool[%d] = %v, want %v", i, v, want[i])
		}
	}
	dy := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	dx := p.Backward(detDev(), dy)
	// Gradient must land exactly on each window's argmax.
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 1, 3) != 2 || dx.At(0, 0, 3, 1) != 3 || dx.At(0, 0, 3, 3) != 4 {
		t.Fatalf("maxpool backward: %v", dx.Data())
	}
	var sum float32
	for _, v := range dx.Data() {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("maxpool backward leaked gradient: total %v", sum)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	p := NewGlobalAvgPool("gap")
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := p.Forward(detDev(), x, true)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 25 {
		t.Fatalf("gap forward %v", y.Data())
	}
	dy := tensor.FromSlice([]float32{4, 8}, 1, 2)
	dx := p.Backward(detDev(), dy)
	if dx.At(0, 0, 0, 0) != 1 || dx.At(0, 1, 1, 1) != 2 {
		t.Fatalf("gap backward %v", dx.Data())
	}
}

func TestBatchNormNormalizesBatch(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	bn.Init(rng.New(1))
	x := tensor.New(4, 2, 3, 3)
	rng.New(2).FillNorm(x.Data(), 5, 3) // deliberately off-center
	y := bn.Forward(detDev(), x, true)
	// Per-channel output mean ~0, variance ~1.
	n, c, hw := 4, 2, 9
	for ci := 0; ci < c; ci++ {
		var sum, sumSq float64
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * hw
			for i := 0; i < hw; i++ {
				v := float64(y.Data()[base+i])
				sum += v
				sumSq += v * v
			}
		}
		m := float64(n * hw)
		mean := sum / m
		variance := sumSq/m - mean*mean
		if math.Abs(mean) > 1e-4 {
			t.Errorf("channel %d mean %v after BN", ci, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Errorf("channel %d variance %v after BN", ci, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	bn.Init(rng.New(1))
	x := tensor.New(8, 1, 2, 2)
	rng.New(3).FillNorm(x.Data(), 2, 1)
	for i := 0; i < 50; i++ {
		bn.Forward(detDev(), x, true)
	}
	mean, variance := bn.RunningStats()
	if math.Abs(float64(mean[0])-2) > 0.2 {
		t.Errorf("running mean %v, want ~2", mean[0])
	}
	if variance[0] <= 0 {
		t.Errorf("running variance %v", variance[0])
	}
	// Eval mode on the same data should produce roughly normalized output.
	y := bn.Forward(detDev(), x, false)
	var sum float64
	for _, v := range y.Data() {
		sum += float64(v)
	}
	if got := sum / float64(y.Len()); math.Abs(got) > 0.3 {
		t.Errorf("eval-mode mean %v, want ~0", got)
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	d := NewDropout("drop", 0.5)
	d.Init(rng.New(4))
	x := tensor.New(1, 1000)
	x.Fill(1)
	yTrain := d.Forward(detDev(), x, true)
	zeros := 0
	for _, v := range yTrain.Data() {
		switch v {
		case 0:
			zeros++
		case 2: // survivors scaled by 1/(1-0.5)
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropout rate off: %d/1000 zeroed", zeros)
	}
	yEval := d.Forward(detDev(), x, false)
	if !tensor.Equal(yEval, x) {
		t.Fatal("eval-mode dropout must be identity")
	}
}

func TestDropoutBackwardMasksGradient(t *testing.T) {
	d := NewDropout("drop", 0.5)
	d.Init(rng.New(5))
	x := tensor.New(1, 100)
	x.Fill(1)
	y := d.Forward(detDev(), x, true)
	dy := tensor.New(1, 100)
	dy.Fill(1)
	dx := d.Backward(detDev(), dy)
	for i := range dx.Data() {
		if (y.At(0, i) == 0) != (dx.At(0, i) == 0) {
			t.Fatal("dropout backward mask inconsistent with forward")
		}
	}
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	// Uniform logits: loss = log(K), gradient rows sum to 0.
	logits := tensor.New(2, 4)
	loss, dl := SoftmaxCrossEntropy(detDev(), logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("uniform loss %v, want log 4 = %v", loss, math.Log(4))
	}
	for r := 0; r < 2; r++ {
		var sum float64
		for c := 0; c < 4; c++ {
			sum += float64(dl.At(r, c))
		}
		if math.Abs(sum) > 1e-6 {
			t.Fatalf("dlogits row %d sums to %v", r, sum)
		}
	}
}

func TestSoftmaxCrossEntropyConfidentCorrect(t *testing.T) {
	logits := tensor.FromSlice([]float32{20, 0, 0}, 1, 3)
	loss, _ := SoftmaxCrossEntropy(detDev(), logits, []int{0})
	if loss > 1e-6 {
		t.Fatalf("confident-correct loss %v", loss)
	}
}

func TestSequentialInitDeterministic(t *testing.T) {
	build := func() *Sequential {
		n := NewSequential("net",
			NewConv2D("c1", 1, 4, 3, 1, 1),
			NewReLU("r1"),
			NewFlatten("f"),
			NewDense("fc", 4*4*4, 2),
		)
		n.Init(rng.New(77))
		return n
	}
	a, b := build(), build()
	wa, wb := a.WeightVector(), b.WeightVector()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("same-seed init differs")
		}
	}
}

func TestSequentialInitDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate layer names did not panic")
		}
	}()
	n := NewSequential("net", NewReLU("x"), NewReLU("x"))
	n.Init(rng.New(1))
}

func TestWeightVectorAndNumParams(t *testing.T) {
	n := NewSequential("net", NewDense("fc", 3, 2))
	n.Init(rng.New(1))
	if n.NumParams() != 3*2+2 {
		t.Fatalf("NumParams = %d", n.NumParams())
	}
	if len(n.WeightVector()) != 8 {
		t.Fatalf("WeightVector length %d", len(n.WeightVector()))
	}
}

func TestFullForwardBackwardBitwiseDeterministic(t *testing.T) {
	// CONTROL-variant foundation: same seeds + deterministic device ⇒
	// bitwise-identical gradients.
	run := func() []float32 {
		net := NewSequential("net",
			NewConv2D("c1", 3, 8, 3, 1, 1),
			NewBatchNorm("bn1", 8),
			NewReLU("r1"),
			NewMaxPool2D("p1"),
			NewFlatten("f"),
			NewDense("fc", 8*4*4, 10),
		)
		net.Init(rng.New(42))
		dev := device.New(device.V100, device.Deterministic, nil)
		x := tensor.New(4, 3, 8, 8)
		rng.New(43).FillNorm(x.Data(), 0, 1)
		logits := net.Forward(dev, x, true)
		_, dl := SoftmaxCrossEntropy(dev, logits, []int{0, 1, 2, 3})
		net.Backward(dev, dl)
		var grads []float32
		for _, p := range net.Params() {
			grads = append(grads, p.Grad.Data()...)
		}
		return grads
	}
	a, b := run(), b2(run)
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("gradient %d differs between identical runs", i)
		}
	}
}

func b2(f func() []float32) []float32 { return f() }

func TestGradientsDifferUnderDeviceNoise(t *testing.T) {
	// The IMPL mechanism end to end: identical seeds, nondeterministic
	// device ⇒ gradients differ in low bits.
	run := func(entropySeed uint64) []float32 {
		net := NewSequential("net",
			NewConv2D("c1", 3, 8, 3, 1, 1),
			NewReLU("r1"),
			NewFlatten("f"),
			NewDense("fc", 8*8*8, 10),
		)
		net.Init(rng.New(42))
		dev := device.New(device.V100, device.Default, rng.New(entropySeed))
		x := tensor.New(8, 3, 8, 8)
		rng.New(43).FillNorm(x.Data(), 0, 1)
		logits := net.Forward(dev, x, true)
		_, dl := SoftmaxCrossEntropy(dev, logits, []int{0, 1, 2, 3, 4, 5, 6, 7})
		net.Backward(dev, dl)
		var grads []float32
		for _, p := range net.Params() {
			grads = append(grads, p.Grad.Data()...)
		}
		return grads
	}
	a, b := run(1), run(2)
	same := true
	var maxDiff float64
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if d := math.Abs(float64(a[i] - b[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if same {
		t.Fatal("device entropy produced identical gradients; IMPL noise not flowing")
	}
	if maxDiff > 1e-2 {
		t.Fatalf("gradient perturbation too large for rounding noise: %v", maxDiff)
	}
}
