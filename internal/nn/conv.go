package nn

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution in NCHW layout, lowered to GEMM via im2col —
// the same lowering cuDNN's implicit-GEMM algorithms use. The weight is
// stored as (OutC, InC*KH*KW); bias is per output channel. The column
// matrix is never materialized: forward and backward-weights GEMMs gather
// im2col panels from a zero-padded copy of the input straight into the
// device's pack scratch (device.MatMulIm2Col / MatMulIm2ColT), which is
// safe because no layer mutates a produced activation, so the retained
// input x still holds the forward values at backward time.
type Conv2D struct {
	name                string
	inC, outC           int
	kh, kw, stride, pad int
	W, B                *Param
	lastX               *tensor.Tensor  // input retained for backward-weights
	lastGeom            tensor.ConvGeom // geometry of the last forward
	haveForward         bool

	// Scratch reused across training steps. dxBuf backs the backward-data
	// output and must stay layer-owned: the returned gradient aliases it
	// until the caller consumes it. dbBuf holds the bias-gradient
	// reduction. dxHdr and dyHdr are reused tensor headers for the
	// backward-data output and the gradient's GEMM-layout view.
	dxBuf []float32
	dbBuf []float32
	dxHdr tensor.Tensor
	dyHdr tensor.Tensor
}

// NewConv2D builds a convolution layer. kernel is the (square) filter size.
func NewConv2D(name string, inC, outC, kernel, stride, pad int) *Conv2D {
	c := &Conv2D{
		name: name, inC: inC, outC: outC,
		kh: kernel, kw: kernel, stride: stride, pad: pad,
	}
	c.W = newParam(name+"/W", outC, inC*kernel*kernel)
	c.B = newParam(name+"/b", outC)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// Init uses He initialization (the network's nonlinearity is ReLU).
func (c *Conv2D) Init(stream *rng.Stream) {
	fanIn := c.inC * c.kh * c.kw
	stream.Split("W").HeNormal(c.W.Value.Data(), fanIn)
	c.B.Value.Zero()
}

// Kernel returns the filter size (square).
func (c *Conv2D) Kernel() int { return c.kh }

// OutChannels returns the number of output channels.
func (c *Conv2D) OutChannels() int { return c.outC }

// Forward implements Layer.
func (c *Conv2D) Forward(dev *device.Device, x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: Conv2D %s input must be NCHW, got %v", c.name, x.Shape()))
	}
	g := tensor.ConvGeom{
		Batch: x.Dim(0), InC: c.inC, InH: x.Dim(2), InW: x.Dim(3),
		OutC: c.outC, KH: c.kh, KW: c.kw, Stride: c.stride, Pad: c.pad,
	}
	if x.Dim(1) != c.inC {
		panic(fmt.Sprintf("nn: Conv2D %s expects %d input channels, got %d", c.name, c.inC, x.Dim(1)))
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	// yMat: (OutC, N*OH*OW) = W × im2col(x), with the column matrix
	// generated panel-by-panel inside the kernel.
	yMat := dev.MatMulIm2Col(c.W.Value, x, g)
	addBiasRows(yMat, c.B.Value.Data())

	c.lastX, c.lastGeom, c.haveForward = x, g, true
	return matToNCHW(dev, yMat, g)
}

// Backward implements Layer.
func (c *Conv2D) Backward(dev *device.Device, dy *tensor.Tensor) *tensor.Tensor {
	if !c.haveForward {
		panic(fmt.Sprintf("nn: Conv2D %s Backward before Forward", c.name))
	}
	g := c.lastGeom
	dyScr := tensor.GetScratch(g.OutC * g.ColCols())
	dyMat := nchwToMat(dy, g, dyScr, &c.dyHdr) // (OutC, N*OH*OW)

	// dW = dyMat × im2col(x)^T (fused, colᵀ never materialized);
	// dB = row sums of dyMat.
	dW := dev.MatMulIm2ColT(dyMat, c.lastX, g)
	c.W.Grad.Add(dW)
	c.dbBuf = dev.SumRowsInto(dyMat, c.dbBuf)
	bg := c.B.Grad.Data()
	for i, v := range c.dbBuf {
		bg[i] += v
	}

	// dcol = W^T × dyMat, then scatter back to image space (atomicAdd sim).
	dcol := dev.MatMul(c.W.Value, dyMat, true, false)
	tensor.PutScratch(dyScr)
	n := g.Batch * g.InC * g.InH * g.InW
	if cap(c.dxBuf) < n {
		c.dxBuf = make([]float32, n)
	}
	dx := tensor.FromSliceInto(&c.dxHdr, c.dxBuf[:n], g.Batch, g.InC, g.InH, g.InW)
	dx.Zero() // Col2Im accumulates; the scratch holds last step's values
	dev.Col2Im(dcol, g, dx)
	c.lastX, c.haveForward = nil, false
	return dx
}

// addBiasRows adds bias[r] to every element of row r.
func addBiasRows(m *tensor.Tensor, bias []float32) {
	rows, cols := m.Dim(0), m.Dim(1)
	d := m.Data()
	for r := 0; r < rows; r++ {
		b := bias[r]
		row := d[r*cols : (r+1)*cols]
		for i := range row {
			row[i] += b
		}
	}
}

// matToNCHW reorders a (OutC, N*OH*OW) GEMM output into (N, OutC, OH, OW).
// The output is device-allocated (workspace-backed when one is attached)
// and fully overwritten.
func matToNCHW(dev *device.Device, m *tensor.Tensor, g tensor.ConvGeom) *tensor.Tensor {
	outH, outW := g.OutH(), g.OutW()
	hw := outH * outW
	out := dev.Alloc(g.Batch, g.OutC, outH, outW)
	md, od := m.Data(), out.Data()
	for c := 0; c < g.OutC; c++ {
		for n := 0; n < g.Batch; n++ {
			src := md[(c*g.Batch+n)*hw : (c*g.Batch+n+1)*hw]
			dst := od[(n*g.OutC+c)*hw : (n*g.OutC+c+1)*hw]
			copy(dst, src)
		}
	}
	return out
}

// nchwToMat reorders (N, OutC, OH, OW) gradients into GEMM layout
// (OutC, N*OH*OW), backed by the caller-supplied scratch and header.
func nchwToMat(t *tensor.Tensor, g tensor.ConvGeom, scr []float32, hdr *tensor.Tensor) *tensor.Tensor {
	outH, outW := g.OutH(), g.OutW()
	hw := outH * outW
	out := tensor.FromSliceInto(hdr, scr[:g.OutC*g.Batch*hw], g.OutC, g.Batch*hw)
	td, od := t.Data(), out.Data()
	for n := 0; n < g.Batch; n++ {
		for c := 0; c < g.OutC; c++ {
			src := td[(n*g.OutC+c)*hw : (n*g.OutC+c+1)*hw]
			dst := od[(c*g.Batch+n)*hw : (c*g.Batch+n+1)*hw]
			copy(dst, src)
		}
	}
	return out
}
