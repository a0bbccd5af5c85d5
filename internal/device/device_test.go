package device

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func randMat(seed uint64, r, c int) *tensor.Tensor {
	s := rng.New(seed)
	t := tensor.New(r, c)
	s.FillNorm(t.Data(), 0, 1)
	return t
}

func cpuDev() *Device { return New(CPU, Deterministic, nil) }

func TestMatMulKnownValues(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := tensor.FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := cpuDev().MatMul(a, b, false, false)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("C[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestMatMulTransposes(t *testing.T) {
	a := randMat(1, 4, 3)
	b := randMat(2, 4, 5)
	// aT(3x4) × b(4x5): compare against explicit transpose.
	got := cpuDev().MatMul(a, b, true, false)
	at := tensor.New(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	want := cpuDev().MatMul(at, b, false, false)
	if !tensor.Equal(got, want) {
		t.Fatal("transA result differs from explicit transpose")
	}

	c := randMat(3, 5, 4)
	got2 := cpuDev().MatMul(at, c, false, true)
	ct := tensor.New(4, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			ct.Set(c.At(i, j), j, i)
		}
	}
	want2 := cpuDev().MatMul(at, ct, false, false)
	if !tensor.Equal(got2, want2) {
		t.Fatal("transB result differs from explicit transpose")
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch did not panic")
		}
	}()
	cpuDev().MatMul(randMat(1, 2, 3), randMat(2, 4, 5), false, false)
}

func TestDeterministicModeBitwiseStable(t *testing.T) {
	a, b := randMat(10, 16, 300), randMat(11, 300, 24)
	for _, cfg := range []Config{CPU, P100, V100, RTX5000, T4, TPUv2} {
		d1 := New(cfg, Deterministic, rng.New(1))
		d2 := New(cfg, Deterministic, rng.New(999)) // different entropy must not matter
		if !tensor.Equal(d1.MatMul(a, b, false, false), d2.MatMul(a, b, false, false)) {
			t.Fatalf("%s: deterministic mode depends on entropy", cfg.Name)
		}
	}
}

func TestGPUDefaultModeInjectsOrderNoise(t *testing.T) {
	a, b := randMat(20, 8, 1024), randMat(21, 1024, 8)
	base := New(V100, Deterministic, nil).MatMul(a, b, false, false)
	diff := false
	for trial := uint64(0); trial < 8 && !diff; trial++ {
		d := New(V100, Default, rng.New(100+trial))
		got := d.MatMul(a, b, false, false)
		if !tensor.Equal(got, base) {
			diff = true
			// And the difference must be at rounding scale.
			if m := tensor.MaxAbsDiff(got, base); m > 1e-3 {
				t.Fatalf("order noise too large: %v", m)
			}
		}
	}
	if !diff {
		t.Fatal("V100 default mode produced no accumulation-order noise in 8 runs")
	}
}

func TestTPUIgnoresEntropy(t *testing.T) {
	a, b := randMat(30, 8, 2048), randMat(31, 2048, 8)
	r1 := New(TPUv2, Default, rng.New(1)).MatMul(a, b, false, false)
	r2 := New(TPUv2, Default, rng.New(2)).MatMul(a, b, false, false)
	if !tensor.Equal(r1, r2) {
		t.Fatal("TPU (systolic) must be deterministic regardless of entropy")
	}
}

func TestTensorCoreMatMulDeterministicButTruncated(t *testing.T) {
	a, b := randMat(40, 8, 512), randMat(41, 512, 8)
	r1 := New(RTX5000TC, Default, rng.New(1)).MatMul(a, b, false, false)
	r2 := New(RTX5000TC, Default, rng.New(2)).MatMul(a, b, false, false)
	if !tensor.Equal(r1, r2) {
		t.Fatal("Tensor Core matmul must be order-deterministic")
	}
	full := New(CPU, Deterministic, nil).MatMul(a, b, false, false)
	if tensor.Equal(r1, full) {
		t.Fatal("Tensor Core matmul should show fp16 truncation vs fp32 reference")
	}
	if m := tensor.MaxAbsDiff(r1, full); m > 0.5 {
		t.Fatalf("fp16 truncation error implausibly large: %v", m)
	}
}

func TestTensorCorePartStillNondeterministicOnReductions(t *testing.T) {
	// The paper's finding: TC parts stay nondeterministic because non-matmul
	// kernels run on CUDA cores.
	xs := make([]float32, 8192)
	rng.New(50).FillNorm(xs, 0, 1)
	base := New(RTX5000TC, Deterministic, nil).ReduceSum(xs)
	diff := false
	for trial := uint64(0); trial < 8; trial++ {
		if New(RTX5000TC, Default, rng.New(60+trial)).ReduceSum(xs) != base {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("TC part reductions should still inject CUDA-core order noise")
	}
}

func TestSumRowsMatchesReference(t *testing.T) {
	m := randMat(70, 5, 333)
	got := cpuDev().SumRows(m)
	for r := 0; r < 5; r++ {
		var want float32
		for c := 0; c < 333; c++ {
			want += m.At(r, c)
		}
		if got[r] != want {
			t.Fatalf("row %d: %v != %v", r, got[r], want)
		}
	}
}

func TestReduceSumAccuracy(t *testing.T) {
	xs := make([]float32, 4096)
	rng.New(80).FillNorm(xs, 0, 1)
	var exact float64
	for _, v := range xs {
		exact += float64(v)
	}
	for _, cfg := range []Config{CPU, V100, TPUv2} {
		got := float64(New(cfg, Default, rng.New(81)).ReduceSum(xs))
		if math.Abs(got-exact) > 1e-2 {
			t.Fatalf("%s: ReduceSum off by %v", cfg.Name, math.Abs(got-exact))
		}
	}
}

func TestCol2ImOrderNoise(t *testing.T) {
	g := tensor.ConvGeom{Batch: 2, InC: 4, InH: 8, InW: 8, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	col := tensor.New(g.ColRows(), g.ColCols())
	rng.New(90).FillNorm(col.Data(), 0, 1)

	base := tensor.New(2, 4, 8, 8)
	New(V100, Deterministic, nil).Col2Im(col, g, base)

	diff := false
	for trial := uint64(0); trial < 8 && !diff; trial++ {
		out := tensor.New(2, 4, 8, 8)
		New(V100, Default, rng.New(200+trial)).Col2Im(col, g, out)
		if !tensor.Equal(out, base) {
			diff = true
			if m := tensor.MaxAbsDiff(out, base); m > 1e-3 {
				t.Fatalf("col2im order noise too large: %v", m)
			}
		}
	}
	if !diff {
		t.Fatal("col2im on V100 default mode produced no order noise")
	}
}

// TestConvKernelsRejectShapeMismatch: every conv kernel indexes its
// image and column operands through the geometry alone, so an operand of
// any other shape would be read or written at the wrong pixels. Each
// kernel must refuse one instead.
func TestConvKernelsRejectShapeMismatch(t *testing.T) {
	g := tensor.ConvGeom{Batch: 2, InC: 3, InH: 4, InW: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	w := tensor.New(g.OutC, g.ColRows())
	dy := tensor.New(g.OutC, g.ColCols())
	col := tensor.New(g.ColRows(), g.ColCols())
	img := tensor.New(g.Batch, g.InC, g.InH, g.InW)
	wide := tensor.New(g.Batch, g.InC, g.InH, g.InW+1) // InW 5 under InW 4
	for _, tc := range []struct {
		name string
		run  func(d *Device)
	}{
		{"MatMulIm2Col input", func(d *Device) { d.MatMulIm2Col(w, wide, g) }},
		{"MatMulIm2Col batch", func(d *Device) { d.MatMulIm2Col(w, tensor.New(g.Batch+1, g.InC, g.InH, g.InW), g) }},
		{"MatMulIm2ColT input", func(d *Device) { d.MatMulIm2ColT(dy, wide, g) }},
		{"Col2Im destination", func(d *Device) { d.Col2Im(col, g, wide) }},
		{"Col2Im column rows", func(d *Device) { d.Col2Im(tensor.New(g.ColRows()+1, g.ColCols()), g, img) }},
		{"Col2Im column cols", func(d *Device) { d.Col2Im(tensor.New(g.ColRows(), g.ColCols()+1), g, img) }},
		{"Col2Im column rank", func(d *Device) { d.Col2Im(tensor.New(g.ColRows()*g.ColCols()), g, img) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("shape mismatch did not panic")
				}
			}()
			tc.run(New(V100, Deterministic, nil))
		})
	}
	// The matching shapes still run.
	d := New(V100, Deterministic, nil)
	d.MatMulIm2Col(w, img, g)
	d.MatMulIm2ColT(dy, img, g)
	d.Col2Im(col, g, img)
}

func TestReorderChunksScaleWithCores(t *testing.T) {
	n := 10000
	if V100.reorderChunks(n) <= P100.reorderChunks(n) {
		t.Fatal("V100 (more cores) must have more reorder chunks than P100")
	}
	if P100.reorderChunks(n) <= T4.reorderChunks(n) {
		t.Fatal("P100 must have more reorder chunks than T4")
	}
	if TPUv2.reorderChunks(n) != 1 || CPU.reorderChunks(n) != 1 {
		t.Fatal("systolic/CPU parts must not chunk")
	}
	if got := V100.reorderChunks(3); got > 3 {
		t.Fatalf("chunks (%d) exceed reduction length", got)
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("V100")
	if err != nil || c.CUDACores != 5120 {
		t.Fatalf("ByName(V100) = %+v, %v", c, err)
	}
	if _, err := ByName("H100"); err == nil {
		t.Fatal("unknown device did not error")
	}
}

func TestKernelLaunchCounting(t *testing.T) {
	d := cpuDev()
	a, b := randMat(1, 2, 3), randMat(2, 3, 2)
	d.MatMul(a, b, false, false)
	d.ReduceSum([]float32{1, 2})
	d.SumRows(a)
	if d.KernelLaunches() != 3 {
		t.Fatalf("KernelLaunches = %d, want 3", d.KernelLaunches())
	}
}

func TestFP16RoundProperties(t *testing.T) {
	cases := map[float32]float32{
		0:       0,
		1:       1,
		-2:      -2,
		65504:   65504,
		1e9:     65504,      // saturates
		-1e9:    -65504,     // saturates
		1e-30:   0,          // flushes
		0.33325: 0.33325195, // representable half value nearby
	}
	for in, want := range cases {
		if got := fp16Round(in); math.Abs(float64(got-want)) > 1e-4*math.Abs(float64(want))+1e-8 {
			t.Errorf("fp16Round(%v) = %v, want ~%v", in, got, want)
		}
	}
}

func TestFP16RoundQuick(t *testing.T) {
	// Properties: idempotent, monotone error bound (|x - round(x)| <= 2^-11 * |x|
	// for normal-range values), sign-preserving.
	f := func(u uint32) bool {
		x := math.Float32frombits(u)
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		r := fp16Round(x)
		if fp16Round(r) != r {
			return false
		}
		if x != 0 && math.Signbit(float64(x)) != math.Signbit(float64(r)) && r != 0 {
			return false
		}
		ax := math.Abs(float64(x))
		if ax >= 6.2e-5 && ax <= 65504 { // fp16 normal range
			if math.Abs(float64(r)-float64(x)) > ax/1024 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestByNameAliases pins the lookup contract: catalog names resolve
// case- and punctuation-insensitively, so grid specs can say "v100" or
// "rtx5000tc" instead of reproducing exact catalog spelling.
func TestByNameAliases(t *testing.T) {
	cases := map[string]string{
		"V100":       "V100",
		"v100":       "V100",
		"RTX5000 TC": "RTX5000 TC",
		"rtx5000tc":  "RTX5000 TC",
		"rtx5000-tc": "RTX5000 TC",
		"Rtx5000":    "RTX5000",
		"tpuv2":      "TPUv2",
		"cpu":        "CPU",
	}
	for in, want := range cases {
		got, err := ByName(in)
		if err != nil || got.Name != want {
			t.Errorf("ByName(%q) = %q, %v; want %q", in, got.Name, err, want)
		}
	}
	if _, err := ByName("H100"); err == nil {
		t.Error("unknown device accepted")
	}
	// Every catalog entry has a unique alias (lookup can never be ambiguous).
	seen := map[string]string{}
	for _, c := range Catalog {
		a := Alias(c.Name)
		if prev, dup := seen[a]; dup {
			t.Errorf("alias %q shared by %q and %q", a, prev, c.Name)
		}
		seen[a] = c.Name
	}
}

// TestDescribe checks the JSON-ready catalog view used by `nnrand
// devices` and GET /v1/devices.
func TestDescribe(t *testing.T) {
	infos := Describe()
	if len(infos) != len(Catalog) {
		t.Fatalf("Describe lists %d devices, catalog has %d", len(infos), len(Catalog))
	}
	for i, d := range infos {
		if d.Name != Catalog[i].Name || d.Alias != Alias(d.Name) || d.Arch == "" {
			t.Errorf("info %d = %+v", i, d)
		}
	}
	byName := map[string]Info{}
	for _, d := range infos {
		byName[d.Name] = d
	}
	if !byName["TPUv2"].Deterministic || !byName["CPU"].Deterministic {
		t.Error("systolic/serial parts must be deterministic")
	}
	if byName["V100"].Deterministic {
		t.Error("V100 marked deterministic")
	}
	if !byName["RTX5000 TC"].TensorCores || byName["RTX5000 TC"].Alias != "rtx5000tc" {
		t.Errorf("RTX5000 TC info = %+v", byName["RTX5000 TC"])
	}
}
