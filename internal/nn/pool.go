package nn

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// MaxPool2D performs non-overlapping 2×2 max pooling with stride 2. Max
// is order-insensitive (ties resolve to the first index scanned), so
// pooling is deterministic on every device.
type MaxPool2D struct {
	name      string
	lastShape []int
	argmax    []int // flat input index of each output element's max
}

// NewMaxPool2D builds a 2×2, stride-2 max-pooling layer.
func NewMaxPool2D(name string) *MaxPool2D { return &MaxPool2D{name: name} }

// Name implements Layer.
func (p *MaxPool2D) Name() string { return p.name }

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// Init implements Layer.
func (p *MaxPool2D) Init(*rng.Stream) {}

// Forward implements Layer. Each window is scanned row-major from its
// first element, which a later one replaces only when strictly greater:
// ties keep the first index, and a NaN neither replaces nor is replaced.
func (p *MaxPool2D) Forward(dev *device.Device, x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D %s input must be NCHW, got %v", p.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D %s input %dx%d not divisible by window 2", p.name, h, w))
	}
	oh, ow := h/2, w/2
	out := dev.Alloc(n, c, oh, ow)
	p.lastShape = append(p.lastShape[:0], x.Shape()...)
	if cap(p.argmax) < out.Len() {
		p.argmax = make([]int, out.Len())
	}
	p.argmax = p.argmax[:out.Len()]

	xd, od := x.Data(), out.Data()
	for o := 0; o < len(od); o += ow {
		base := 2 * (o / ow) * w // first input row of this output row
		top := xd[base : base+w]
		bot := xd[base+w : base+2*w]
		orow := od[o : o+ow]
		arow := p.argmax[o : o+ow]
		for j := range orow {
			i := base + 2*j
			best, bi := top[2*j], i
			best, bi = pick(best, bi, top[2*j+1], i+1)
			best, bi = pick(best, bi, bot[2*j], i+w)
			best, bi = pick(best, bi, bot[2*j+1], i+w+1)
			orow[j], arow[j] = best, bi
		}
	}
	return out
}

// pick returns (v, vi) when v > best and (best, bi) otherwise. The
// compare only sets an integer mask (no jump), and the mask selects both
// the value's bits and the index.
func pick(best float32, bi int, v float32, vi int) (float32, int) {
	var gt int
	if v > best {
		gt = 1
	}
	mask := -gt
	bits := uint32(mask)&math.Float32bits(v) | ^uint32(mask)&math.Float32bits(best)
	return math.Float32frombits(bits), mask&vi | ^mask&bi
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(dev *device.Device, dy *tensor.Tensor) *tensor.Tensor {
	// The scatter accumulates into dx, so it must start zeroed.
	dx := dev.AllocZero(p.lastShape...)
	dxd, dyd := dx.Data(), dy.Data()
	for i, src := range p.argmax {
		dxd[src] += dyd[i]
	}
	return dx
}

// GlobalAvgPool averages each channel over its spatial extent, producing
// (N, C). The spatial reduction runs through the device so accumulation
// order noise applies.
type GlobalAvgPool struct {
	name      string
	lastShape []int
	sumBuf    []float32     // spatial-sum reduction, reused across steps
	viewHdr   tensor.Tensor // reused header for the (N*C, H*W) input view
}

// NewGlobalAvgPool builds a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return p.name }

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Init implements Layer.
func (p *GlobalAvgPool) Init(*rng.Stream) {}

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(dev *device.Device, x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool %s input must be NCHW, got %v", p.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	p.lastShape = append(p.lastShape[:0], x.Shape()...)
	// (N*C, H*W) view shares storage; SumRows reduces each channel map.
	p.sumBuf = dev.SumRowsInto(x.ReshapeInto(&p.viewHdr, n*c, h*w), p.sumBuf)
	sums := p.sumBuf
	out := dev.Alloc(n, c)
	od := out.Data()
	inv := 1 / float32(h*w)
	for i, s := range sums {
		od[i] = s * inv
	}
	return out
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(dev *device.Device, dy *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := p.lastShape[0], p.lastShape[1], p.lastShape[2], p.lastShape[3]
	dx := dev.Alloc(n, c, h, w)
	dxd, dyd := dx.Data(), dy.Data()
	inv := 1 / float32(h*w)
	for nc := 0; nc < n*c; nc++ {
		g := dyd[nc] * inv
		base := nc * h * w
		for i := 0; i < h*w; i++ {
			dxd[base+i] = g
		}
	}
	return dx
}
