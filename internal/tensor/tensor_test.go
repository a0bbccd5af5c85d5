package tensor

import (
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 || x.Rank() != 3 || x.Dim(1) != 3 {
		t.Fatalf("unexpected tensor geometry: len=%d rank=%d", x.Len(), x.Rank())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestScalarTensor(t *testing.T) {
	x := New()
	if x.Len() != 1 || x.Rank() != 0 {
		t.Fatalf("scalar tensor: len=%d rank=%d", x.Len(), x.Rank())
	}
	x.Set(3.5)
	if x.At() != 3.5 {
		t.Fatal("scalar set/get failed")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7, 2, 1)
	if x.At(2, 1) != 7 {
		t.Fatal("At/Set round trip failed")
	}
	if x.Data()[2*4+1] != 7 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeInference(t *testing.T) {
	x := New(4, 6)
	y := x.Reshape(2, -1)
	if y.Dim(0) != 2 || y.Dim(1) != 12 {
		t.Fatalf("Reshape(2,-1) gave %v", y.Shape())
	}
	y.Set(9, 0, 0)
	if x.At(0, 0) != 9 {
		t.Fatal("Reshape must share storage")
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad Reshape did not panic")
		}
	}()
	New(4).Reshape(3)
}

func TestCloneIndependence(t *testing.T) {
	x := New(3)
	x.Fill(1)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := FromSlice([]float32{10, 20, 30}, 3)
	x.Add(y)
	if x.At(2) != 33 {
		t.Fatalf("Add: got %v", x.At(2))
	}
	x.Sub(y)
	if x.At(0) != 1 {
		t.Fatalf("Sub: got %v", x.At(0))
	}
	x.Scale(2)
	if x.At(1) != 4 {
		t.Fatalf("Scale: got %v", x.At(1))
	}
	x.MulElem(y)
	if x.At(0) != 20 {
		t.Fatalf("MulElem: got %v", x.At(0))
	}
	x.AddScaled(0.5, y)
	if x.At(0) != 25 {
		t.Fatalf("AddScaled: got %v", x.At(0))
	}
}

func TestEqualAndMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1, 2.5}, 2)
	if Equal(a, b) {
		t.Fatal("Equal on different tensors")
	}
	if d := MaxAbsDiff(a, b); d != 0.5 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
	if !Equal(a, a.Clone()) {
		t.Fatal("Equal on clone failed")
	}
	if Equal(a, New(1, 2)) {
		t.Fatal("Equal ignored shape")
	}
}

func TestArgmaxRows(t *testing.T) {
	m := FromSlice([]float32{1, 5, 2, 7, 7, 0}, 2, 3)
	got := m.ArgmaxRowsInto(make([]int, 3))
	if len(got) != 2 {
		t.Fatalf("got %d rows, want 2", len(got))
	}
	if got[0] != 1 {
		t.Fatalf("row 0 argmax = %d", got[0])
	}
	if got[1] != 0 { // tie resolves to the lowest index
		t.Fatalf("row 1 argmax = %d, want 0 (first of tie)", got[1])
	}
}

func TestConvGeomSizes(t *testing.T) {
	g := ConvGeom{Batch: 2, InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if g.OutH() != 8 || g.OutW() != 8 {
		t.Fatalf("same-padding geometry broken: %dx%d", g.OutH(), g.OutW())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g2 := ConvGeom{Batch: 1, InC: 1, InH: 2, InW: 2, OutC: 1, KH: 5, KW: 5, Stride: 1, Pad: 0}
	if err := g2.Validate(); err == nil {
		t.Fatal("degenerate conv geometry validated")
	}
	g3 := g
	g3.Stride = 0
	if err := g3.Validate(); err == nil {
		t.Fatal("zero stride validated")
	}
}

// TestConvGeomValidateRejects lists degenerate geometries, most of whose
// output sizes still come out positive; a negative pad would index outside
// the padded input.
func TestConvGeomValidateRejects(t *testing.T) {
	base := ConvGeom{Batch: 2, InC: 3, InH: 8, InW: 8, OutC: 4, KH: 1, KW: 1, Stride: 1, Pad: 1}
	for _, tc := range []struct {
		name string
		edit func(*ConvGeom)
	}{
		{"zero KH", func(g *ConvGeom) { g.KH = 0 }},
		{"negative KW", func(g *ConvGeom) { g.KW = -1 }},
		{"zero InH", func(g *ConvGeom) { g.InH = 0 }},
		{"negative InW", func(g *ConvGeom) { g.InW = -1 }},
		{"negative Pad", func(g *ConvGeom) { g.Pad = -1 }},
		{"zero Batch", func(g *ConvGeom) { g.Batch = 0 }},
		{"zero Stride", func(g *ConvGeom) { g.Stride = 0 }},
	} {
		g := base
		tc.edit(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: %+v validated", tc.name, g)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base geometry rejected: %v", err)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is just a reshape.
	g := ConvGeom{Batch: 1, InC: 2, InH: 3, InW: 3, OutC: 1, KH: 1, KW: 1, Stride: 1, Pad: 0}
	in := New(1, 2, 3, 3)
	for i := range in.Data() {
		in.Data()[i] = float32(i)
	}
	col := New(g.ColRows(), g.ColCols())
	Im2Col(in, g, col)
	for i, v := range col.Data() {
		if v != float32(i) {
			t.Fatalf("1x1 im2col should be identity; idx %d = %v", i, v)
		}
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 2x2 input, 2x2 kernel, no pad: single output position containing the
	// whole image, ordered (c, kh, kw).
	g := ConvGeom{Batch: 1, InC: 1, InH: 2, InW: 2, OutC: 1, KH: 2, KW: 2, Stride: 1, Pad: 0}
	in := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	col := New(g.ColRows(), g.ColCols())
	Im2Col(in, g, col)
	want := []float32{1, 2, 3, 4}
	for i, v := range col.Data() {
		if v != want[i] {
			t.Fatalf("im2col[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	g := ConvGeom{Batch: 1, InC: 1, InH: 1, InW: 1, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	in := FromSlice([]float32{5}, 1, 1, 1, 1)
	col := New(g.ColRows(), g.ColCols())
	Im2Col(in, g, col)
	// Only the center kernel position (kh=1,kw=1) sees the pixel.
	var nonZero int
	for row := 0; row < 9; row++ {
		v := col.At(row, 0)
		if v != 0 {
			nonZero++
			if row != 4 || v != 5 {
				t.Fatalf("unexpected non-zero at row %d: %v", row, v)
			}
		}
	}
	if nonZero != 1 {
		t.Fatalf("expected exactly 1 non-zero entry, got %d", nonZero)
	}
}

func TestCol2ImInverseOfIm2ColNoOverlap(t *testing.T) {
	// Stride = kernel size means no overlapping windows, so col2im(im2col(x))
	// reproduces x exactly.
	g := ConvGeom{Batch: 2, InC: 3, InH: 4, InW: 4, OutC: 1, KH: 2, KW: 2, Stride: 2, Pad: 0}
	in := New(2, 3, 4, 4)
	for i := range in.Data() {
		in.Data()[i] = float32(i%13) - 6
	}
	col := New(g.ColRows(), g.ColCols())
	Im2Col(in, g, col)
	back := New(2, 3, 4, 4)
	new(Im2ColPlan).Col2Im(col, g, back, nil)
	if !Equal(in, back) {
		t.Fatalf("col2im(im2col) != identity for non-overlapping windows; max diff %v", MaxAbsDiff(in, back))
	}
}

func TestCol2ImOverlapCounts(t *testing.T) {
	// With a 3x3 kernel, pad 1, stride 1 on an all-ones col matrix, each
	// pixel accumulates once per kernel position that covers it.
	g := ConvGeom{Batch: 1, InC: 1, InH: 3, InW: 3, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	col := New(g.ColRows(), g.ColCols())
	col.Fill(1)
	out := New(1, 1, 3, 3)
	new(Im2ColPlan).Col2Im(col, g, out, nil)
	// Center pixel is covered by all 9 kernel offsets; corners by 4.
	if out.At(0, 0, 1, 1) != 9 {
		t.Fatalf("center coverage = %v, want 9", out.At(0, 0, 1, 1))
	}
	if out.At(0, 0, 0, 0) != 4 {
		t.Fatalf("corner coverage = %v, want 4", out.At(0, 0, 0, 0))
	}
}

func TestCol2ImRowOrderPermutationSameResultForExactValues(t *testing.T) {
	// With integer-valued data (exact in float32), accumulation order must
	// not change the result. This pins down that rowOrder only permutes
	// order, never drops or duplicates rows.
	g := ConvGeom{Batch: 1, InC: 2, InH: 4, InW: 4, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	col := New(g.ColRows(), g.ColCols())
	for i := range col.Data() {
		col.Data()[i] = float32(i % 7)
	}
	a := New(1, 2, 4, 4)
	new(Im2ColPlan).Col2Im(col, g, a, nil)
	order := make([]int, g.ColRows())
	for i := range order {
		order[i] = g.ColRows() - 1 - i
	}
	b := New(1, 2, 4, 4)
	new(Im2ColPlan).Col2Im(col, g, b, order)
	if !Equal(a, b) {
		t.Fatal("row order permutation changed exact-arithmetic result")
	}
}

func TestIm2ColProperty(t *testing.T) {
	// Property: the sum over the col matrix equals the sum over the input
	// weighted by each pixel's coverage count (here: no pad, stride=kernel,
	// so coverage is exactly 1 for covered pixels).
	f := func(seed uint8) bool {
		g := ConvGeom{Batch: 1, InC: 1, InH: 6, InW: 6, OutC: 1, KH: 2, KW: 2, Stride: 2, Pad: 0}
		in := New(1, 1, 6, 6)
		for i := range in.Data() {
			in.Data()[i] = float32((int(seed)+i*7)%11) - 5
		}
		col := New(g.ColRows(), g.ColCols())
		Im2Col(in, g, col)
		var sumIn, sumCol float64
		for _, v := range in.Data() {
			sumIn += float64(v)
		}
		for _, v := range col.Data() {
			sumCol += float64(v)
		}
		return sumIn == sumCol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
