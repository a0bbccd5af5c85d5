package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution in NCHW layout.
type ConvGeom struct {
	Batch    int // N
	InC      int // input channels
	InH, InW int // input spatial size
	OutC     int // output channels
	KH, KW   int // kernel size
	Stride   int
	Pad      int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// ColRows returns the im2col matrix row count: InC*KH*KW.
func (g ConvGeom) ColRows() int { return g.InC * g.KH * g.KW }

// ColCols returns the im2col matrix column count: N*OutH*OutW.
func (g ConvGeom) ColCols() int { return g.Batch * g.OutH() * g.OutW() }

// Validate reports an error if the geometry is degenerate.
func (g ConvGeom) Validate() error {
	if g.Batch <= 0 || g.InC <= 0 || g.OutC <= 0 {
		return fmt.Errorf("tensor: conv geometry with non-positive counts: %+v", g)
	}
	if g.InH <= 0 || g.InW <= 0 || g.KH <= 0 || g.KW <= 0 {
		return fmt.Errorf("tensor: conv geometry with non-positive input or kernel size: %+v", g)
	}
	if g.Pad < 0 {
		return fmt.Errorf("tensor: conv pad must be non-negative, got %d", g.Pad)
	}
	if g.Stride <= 0 {
		return fmt.Errorf("tensor: conv stride must be positive, got %d", g.Stride)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("tensor: conv output empty for %+v", g)
	}
	return nil
}

// Im2Col expands input (N, C, H, W) into a (C*KH*KW, N*OutH*OutW) matrix so
// convolution becomes a single matmul: W(OutC, C*KH*KW) × col. Rows index
// kernel positions (c, kh, kw); columns index output positions (n, oh, ow);
// padding contributes zeros. The expansion involves no reductions, so it is
// deterministic regardless of device mode.
//
// Conv layers never materialize this matrix: the device's fused GEMMs
// gather panels of it through an Im2ColPlan. This plain per-element loop is
// the independent reference those gathers are tested against, and the
// materialized path the benchmarks compare them with.
func Im2Col(in *Tensor, g ConvGeom, dst *Tensor) {
	outH, outW := g.OutH(), g.OutW()
	cols := g.ColCols()
	id, dd := in.Data(), dst.Data()
	for r := 0; r < g.ColRows(); r++ {
		kw := r % g.KW
		kh := (r / g.KW) % g.KH
		c := r / (g.KW * g.KH)
		for n := 0; n < g.Batch; n++ {
			for oh := 0; oh < outH; oh++ {
				ih := oh*g.Stride + kh - g.Pad
				for ow := 0; ow < outW; ow++ {
					iw := ow*g.Stride + kw - g.Pad
					var v float32
					if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
						v = id[((n*g.InC+c)*g.InH+ih)*g.InW+iw]
					}
					dd[r*cols+(n*outH+oh)*outW+ow] = v
				}
			}
		}
	}
}

// Im2ColPlan lowers one convolution geometry through a zero-bordered copy
// of its input, so that every im2col element — padding included — is a
// plain load from one flat buffer at a precomputed offset:
//
//	col[r][j] = padded[rowOff[r] + colOff[j]]
//
// where the padded image is N×C×(H+2P)×(W+2P), colOff[j] = n·C·Hp·Wp +
// oh·S·Wp + ow·S for output position j = (n, oh, ow), and rowOff[r] =
// c·Hp·Wp + kh·Wp + kw for kernel position r = (c, kh, kw). The gathers
// and the col2im scatter then need no per-element padding test. With
// Pad == 0 the padded image is the input itself and nothing is copied.
//
// A plan keeps its offset tables across calls, rebuilding them only when
// the geometry changes; padded copies are kernel-lifetime buffers from the
// scratch pool, so replicas training side by side share them. A warm plan
// allocates nothing. It is not safe for concurrent mutation, but Panel and
// PanelT only read the loaded state and may run from many goroutines at
// once.
type Im2ColPlan struct {
	g      ConvGeom
	hp, wp int       // padded spatial size
	buf    []float32 // pooled padded copy of the loaded input, if any
	src    []float32 // the padded image the gathers read
	colOff []int     // per output position j
	rowOff []int     // per kernel position r
}

// setGeom rebuilds the offset tables for g; a no-op when g is unchanged.
func (p *Im2ColPlan) setGeom(g ConvGeom) {
	if g == p.g && p.colOff != nil {
		return
	}
	p.g = g
	p.hp, p.wp = g.InH+2*g.Pad, g.InW+2*g.Pad
	plane := p.hp * p.wp
	outH, outW := g.OutH(), g.OutW()
	p.colOff = growInts(p.colOff, g.ColCols())
	j := 0
	for n := 0; n < g.Batch; n++ {
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				p.colOff[j] = n*g.InC*plane + oh*g.Stride*p.wp + ow*g.Stride
				j++
			}
		}
	}
	p.rowOff = growInts(p.rowOff, g.ColRows())
	r := 0
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				p.rowOff[r] = c*plane + kh*p.wp + kw
				r++
			}
		}
	}
}

// pad copies an N×C×H×W image into pooled scratch with a zero border of
// width Pad and returns the copy; the caller returns it with PutScratch.
func (p *Im2ColPlan) pad(img []float32) []float32 {
	g := p.g
	buf := GetScratch(g.Batch * g.InC * p.hp * p.wp)
	clear(buf)
	for plane := 0; plane < g.Batch*g.InC; plane++ {
		for h := 0; h < g.InH; h++ {
			dst := buf[(plane*p.hp+h+g.Pad)*p.wp+g.Pad:]
			copy(dst[:g.InW], img[(plane*g.InH+h)*g.InW:])
		}
	}
	return buf
}

// unpad copies the interior of a padded image back into an N×C×H×W image.
func (p *Im2ColPlan) unpad(buf, img []float32) {
	g := p.g
	for plane := 0; plane < g.Batch*g.InC; plane++ {
		for h := 0; h < g.InH; h++ {
			src := buf[(plane*p.hp+h+g.Pad)*p.wp+g.Pad:]
			copy(img[(plane*g.InH+h)*g.InW:(plane*g.InH+h+1)*g.InW], src)
		}
	}
}

// Load prepares the plan to gather the im2col matrix of in (N, C, H, W)
// under geometry g. The plan reads in (or its padded copy) until Release.
func (p *Im2ColPlan) Load(in *Tensor, g ConvGeom) {
	p.setGeom(g)
	p.src = in.Data()
	if g.Pad > 0 {
		p.buf = p.pad(p.src)
		p.src = p.buf
	}
}

// Release returns the loaded input's padded copy to the scratch pool.
// The plan gathers nothing until the next Load.
func (p *Im2ColPlan) Release() {
	PutScratch(p.buf)
	p.buf, p.src = nil, nil
}

// Panel writes the [rLo,rHi) × [jLo,jHi) sub-block of the loaded input's
// im2col matrix into dst, row-major with row stride jHi-jLo. The values
// are exactly Im2Col's at the same coordinates — copies of input elements
// or of the border's +0 — so a GEMM that packs its B panels through Panel
// multiplies bit-identical operands without the matrix ever existing.
func (p *Im2ColPlan) Panel(rLo, rHi, jLo, jHi int, dst []float32) {
	w := jHi - jLo
	colOff := p.colOff[jLo:jHi]
	for r := rLo; r < rHi; r++ {
		src := p.src[p.rowOff[r]:]
		// Same length as colOff; saying so drops drow's bounds check.
		drow := dst[(r-rLo)*w : (r-rLo)*w+w][:len(colOff)]
		for i, off := range colOff {
			drow[i] = src[off]
		}
	}
}

// PanelT writes the [jLo,jHi) × [rLo,rHi) sub-block of the TRANSPOSED
// im2col matrix into dst, row-major with row stride rHi-rLo: rows index
// output positions, columns kernel positions. It is the panel the
// backward-weights GEMM (dW = dy × colᵀ) packs.
func (p *Im2ColPlan) PanelT(jLo, jHi, rLo, rHi int, dst []float32) {
	w := rHi - rLo
	rowOff := p.rowOff[rLo:rHi]
	for j := jLo; j < jHi; j++ {
		src := p.src[p.colOff[j]:]
		drow := dst[(j-jLo)*w : (j-jLo)*w+w][:len(rowOff)]
		for i, off := range rowOff {
			drow[i] = src[off]
		}
	}
}

// Col2Im scatters a (C*KH*KW, N*OutH*OutW) column matrix into the image
// tensor dst (N, C, H, W), adding onto dst's current contents. Rows are
// committed in rowOrder (nil = ascending); the device draws that order to
// simulate atomicAdd scheduling. Within one row every output position
// lands on a distinct pixel, so each pixel receives its adds exactly in
// row order, starting from its dst value. Adds that fall in the padding
// border land in a padded accumulator's border and are discarded.
func (p *Im2ColPlan) Col2Im(col *Tensor, g ConvGeom, dst *Tensor, rowOrder []int) {
	p.setGeom(g)
	acc := dst.Data()
	if g.Pad > 0 {
		acc = p.pad(acc)
	}
	cd := col.Data()
	colOff := p.colOff
	cols := len(colOff)
	for ri := range p.rowOff {
		r := ri
		if rowOrder != nil {
			r = rowOrder[ri]
		}
		a := acc[p.rowOff[r]:]
		crow := cd[r*cols : r*cols+cols][:len(colOff)]
		for j, off := range colOff {
			a[off] += crow[j]
		}
	}
	if g.Pad > 0 {
		p.unpad(acc, dst.Data())
		PutScratch(acc)
	}
}

// growInts grows dst to n elements, reusing its backing array when
// possible. Contents are unspecified; callers overwrite.
func growInts(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	return dst[:n]
}
