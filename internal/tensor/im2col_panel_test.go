package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// panelGeoms covers small edge shapes plus every conv geometry ResNet-18
// and SmallCNN run at batch 32 on 8×8 inputs.
func panelGeoms() []ConvGeom {
	return []ConvGeom{
		{Batch: 2, InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Batch: 1, InC: 2, InH: 5, InW: 7, OutC: 2, KH: 3, KW: 3, Stride: 2, Pad: 0},
		{Batch: 3, InC: 1, InH: 9, InW: 6, OutC: 2, KH: 2, KW: 3, Stride: 2, Pad: 1},
		{Batch: 1, InC: 2, InH: 4, InW: 4, OutC: 2, KH: 1, KW: 1, Stride: 1, Pad: 0},
		// InH+2P-KH = 10 and InW+2P-KW = 7 are not multiples of Stride: the
		// last rows and columns of the padded image are never read.
		{Batch: 2, InC: 2, InH: 11, InW: 7, OutC: 2, KH: 3, KW: 2, Stride: 3, Pad: 1},
		// ResNet-18 (stem, stage convs, stride-2 convs, 1×1 shortcuts).
		{Batch: 32, InC: 3, InH: 8, InW: 8, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Batch: 32, InC: 8, InH: 8, InW: 8, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Batch: 32, InC: 8, InH: 8, InW: 8, OutC: 16, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{Batch: 32, InC: 8, InH: 8, InW: 8, OutC: 16, KH: 1, KW: 1, Stride: 2, Pad: 0},
		{Batch: 32, InC: 16, InH: 4, InW: 4, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Batch: 32, InC: 16, InH: 4, InW: 4, OutC: 32, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{Batch: 32, InC: 16, InH: 4, InW: 4, OutC: 32, KH: 1, KW: 1, Stride: 2, Pad: 0},
		{Batch: 32, InC: 32, InH: 2, InW: 2, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1},
		// SmallCNN conv2 and conv3 (conv1 is ResNet-18's stem shape).
		{Batch: 32, InC: 8, InH: 4, InW: 4, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Batch: 32, InC: 16, InH: 2, InW: 2, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
	}
}

func randImage(g ConvGeom, seed uint64) *Tensor {
	x := New(g.Batch, g.InC, g.InH, g.InW)
	s := rng.New(seed)
	d := x.Data()
	for i := range d {
		d[i] = float32(s.Norm())
	}
	sprinkleSpecials(d, s)
	return x
}

// sprinkleSpecials overwrites a few elements of d with signed zeros,
// infinities, a NaN and a subnormal, whose bits a copy or an add must
// carry through unchanged.
func sprinkleSpecials(d []float32, s *rng.Stream) {
	specials := []float32{
		float32(math.Copysign(0, -1)), 0,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.SmallestNonzeroFloat32,
	}
	for _, v := range specials {
		d[s.Intn(len(d))] = v
	}
}

// randSpan draws a non-empty [lo, hi) inside [0, n).
func randSpan(s *rng.Stream, n int) (lo, hi int) {
	lo = s.Intn(n)
	return lo, lo + 1 + s.Intn(n-lo)
}

func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// refIm2ColPanelT is the per-element, bounds-checked transposed panel
// generator the plan replaced, kept verbatim as the independent oracle for
// PanelT.
func refIm2ColPanelT(in *Tensor, g ConvGeom, jLo, jHi, rLo, rHi int, dst []float32) {
	outH, outW := g.OutH(), g.OutW()
	w := rHi - rLo
	id := in.Data()
	// Output-position counters for column j, advanced incrementally.
	n := jLo / (outH * outW)
	rem := jLo - n*outH*outW
	oh := rem / outW
	ow := rem - oh*outW
	kw0 := rLo % g.KW
	kh0 := (rLo / g.KW) % g.KH
	c0 := rLo / (g.KW * g.KH)
	for j := jLo; j < jHi; j++ {
		drow := dst[(j-jLo)*w : (j-jLo)*w+w]
		inBase := n * g.InC * g.InH * g.InW
		ihBase := oh*g.Stride - g.Pad
		iwBase := ow*g.Stride - g.Pad
		kw, kh, c := kw0, kh0, c0
		for i := range drow {
			ih := ihBase + kh
			iw := iwBase + kw
			if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
				drow[i] = 0
			} else {
				drow[i] = id[inBase+(c*g.InH+ih)*g.InW+iw]
			}
			if kw++; kw == g.KW {
				kw = 0
				if kh++; kh == g.KH {
					kh = 0
					c++
				}
			}
		}
		if ow++; ow == outW {
			ow = 0
			if oh++; oh == outH {
				oh = 0
				n++
			}
		}
	}
}

// refCol2ImAccum is the per-element, bounds-checked scatter the plan
// replaced, kept verbatim as the independent oracle for Im2ColPlan.Col2Im.
func refCol2ImAccum(col *Tensor, g ConvGeom, dst *Tensor, rowOrder []int) {
	outH, outW := g.OutH(), g.OutW()
	cols := g.ColCols()
	cd := col.Data()
	dd := dst.Data()
	rows := g.ColRows()
	for ri := 0; ri < rows; ri++ {
		row := ri
		if rowOrder != nil {
			row = rowOrder[ri]
		}
		kw := row % g.KW
		kh := (row / g.KW) % g.KH
		c := row / (g.KW * g.KH)
		base := row * cols
		for n := 0; n < g.Batch; n++ {
			outBase := (n*g.InC + c) * g.InH * g.InW
			for oh := 0; oh < outH; oh++ {
				ih := oh*g.Stride + kh - g.Pad
				if ih < 0 || ih >= g.InH {
					continue
				}
				srcBase := base + (n*outH+oh)*outW
				dstRow := outBase + ih*g.InW
				for ow := 0; ow < outW; ow++ {
					iw := ow*g.Stride + kw - g.Pad
					if iw < 0 || iw >= g.InW {
						continue
					}
					dd[dstRow+iw] += cd[srcBase+ow]
				}
			}
		}
	}
}

// TestIm2ColPanelMatchesFull slices random sub-rectangles out of the
// per-element Im2Col matrix and checks the plan's Panel gathers them bit
// for bit — the property the fused forward GEMM pack relies on.
func TestIm2ColPanelMatchesFull(t *testing.T) {
	var p Im2ColPlan // one plan across geometries, as a device holds it
	for gi, g := range panelGeoms() {
		x := randImage(g, uint64(gi+1))
		rows, cols := g.ColRows(), g.ColCols()
		full := New(rows, cols)
		Im2Col(x, g, full)
		fd := full.Data()
		p.Load(x, g)

		s := rng.New(uint64(50 + gi))
		for trial := 0; trial < 24; trial++ {
			rLo, rHi := randSpan(s, rows)
			jLo, jHi := randSpan(s, cols)
			if trial == 0 {
				rLo, rHi, jLo, jHi = 0, rows, 0, cols
			}
			w := jHi - jLo
			dst := make([]float32, (rHi-rLo)*w)
			for i := range dst {
				dst[i] = -12345 // poison: every element must be overwritten
			}
			p.Panel(rLo, rHi, jLo, jHi, dst)
			for r := rLo; r < rHi; r++ {
				for j := jLo; j < jHi; j++ {
					if got, want := dst[(r-rLo)*w+(j-jLo)], fd[r*cols+j]; !sameBits(got, want) {
						t.Fatalf("geom %d panel r=[%d,%d) j=[%d,%d): [%d][%d] = %v, want %v",
							gi, rLo, rHi, jLo, jHi, r, j, got, want)
					}
				}
			}
		}
		p.Release()
	}
}

// TestIm2ColPanelTMatchesFull checks the plan's transposed panels — the
// backward-weights GEMM pack — against both the per-element transposed
// oracle and the transpose of the full Im2Col matrix, bit for bit.
func TestIm2ColPanelTMatchesFull(t *testing.T) {
	var p Im2ColPlan
	for gi, g := range panelGeoms() {
		x := randImage(g, uint64(gi+1))
		rows, cols := g.ColRows(), g.ColCols()
		full := New(rows, cols)
		Im2Col(x, g, full)
		fd := full.Data()
		p.Load(x, g)

		s := rng.New(uint64(90 + gi))
		for trial := 0; trial < 24; trial++ {
			jLo, jHi := randSpan(s, cols)
			rLo, rHi := randSpan(s, rows)
			if trial == 0 {
				rLo, rHi, jLo, jHi = 0, rows, 0, cols
			}
			w := rHi - rLo
			dst := make([]float32, (jHi-jLo)*w)
			ref := make([]float32, len(dst))
			for i := range dst {
				dst[i] = -12345
			}
			p.PanelT(jLo, jHi, rLo, rHi, dst)
			refIm2ColPanelT(x, g, jLo, jHi, rLo, rHi, ref)
			for j := jLo; j < jHi; j++ {
				for r := rLo; r < rHi; r++ {
					got := dst[(j-jLo)*w+(r-rLo)]
					if want := ref[(j-jLo)*w+(r-rLo)]; !sameBits(got, want) {
						t.Fatalf("geom %d panelT j=[%d,%d) r=[%d,%d): [%d][%d] = %v, oracle %v",
							gi, jLo, jHi, rLo, rHi, j, r, got, want)
					}
					if want := fd[r*cols+j]; !sameBits(got, want) {
						t.Fatalf("geom %d panelT j=[%d,%d) r=[%d,%d): [%d][%d] = %v, Im2Col %v",
							gi, jLo, jHi, rLo, rHi, j, r, got, want)
					}
				}
			}
		}
		p.Release()
	}
}

// TestIm2ColPlanCol2ImMatchesOracle pins the padded-accumulator scatter
// against the per-element oracle run into a zeroed image, bit for bit:
// random scheduler row orders on non-exact data, a destination pre-filled
// with NaN (Col2Im overwrites it), and signed zeros, NaN, ±Inf and a
// subnormal in col. It runs the scatter whole (Col2Im) and in
// image-aligned tiles of every width (Col2ImTile), which must agree.
func TestIm2ColPlanCol2ImMatchesOracle(t *testing.T) {
	var p Im2ColPlan
	for gi, g := range panelGeoms() {
		s := rng.New(uint64(130 + gi))
		col := New(g.ColRows(), g.ColCols())
		s.FillNorm(col.Data(), 0, 1)
		sprinkleSpecials(col.Data(), s)
		hw := g.OutH() * g.OutW()
		for trial := 0; trial < 4; trial++ {
			var order []int
			if trial > 0 {
				order = s.Perm(g.ColRows())
			}
			want := New(g.Batch, g.InC, g.InH, g.InW)
			refCol2ImAccum(col, g, want, order)
			check := func(what string, got *Tensor) {
				t.Helper()
				gd, wd := got.Data(), want.Data()
				for i := range gd {
					if !sameBits(gd[i], wd[i]) {
						t.Fatalf("geom %d trial %d %s: dst[%d] = %v, oracle %v", gi, trial, what, i, gd[i], wd[i])
					}
				}
			}
			got := New(g.Batch, g.InC, g.InH, g.InW)
			got.Fill(float32(math.NaN()))
			p.Col2Im(col, g, got, order)
			check("whole", got)
			for per := 1; per < g.Batch; per++ {
				got.Fill(float32(math.NaN()))
				for n0 := 0; n0 < g.Batch; n0 += per {
					n1 := min(n0+per, g.Batch)
					tile := make([]float32, g.ColRows()*(n1-n0)*hw)
					for r := 0; r < g.ColRows(); r++ {
						copy(tile[r*(n1-n0)*hw:(r+1)*(n1-n0)*hw], col.Data()[r*g.ColCols()+n0*hw:])
					}
					p.Col2ImTile(tile, g, got, n0, n1, order)
				}
				check("tiled", got)
			}
		}
	}
}

// TestScratchPool exercises the bucketed pool: a Get after Put of the same
// size class reuses the buffer, lengths are exact, and foreign buffers are
// rejected rather than filed.
func TestScratchPool(t *testing.T) {
	s := GetScratch(1000)
	if len(s) != 1000 || cap(s) != 1024 {
		t.Fatalf("GetScratch(1000): len=%d cap=%d, want 1000/1024", len(s), cap(s))
	}
	PutScratch(s)
	s2 := GetScratch(600) // same bucket (513..1024)
	if cap(s2) != 1024 {
		t.Fatalf("pooled buffer not reused: cap=%d", cap(s2))
	}
	if GetScratch(0) != nil {
		t.Fatal("GetScratch(0) should be nil")
	}
	PutScratch(make([]float32, 3)) // non-power-of-two cap: dropped, no panic
}
