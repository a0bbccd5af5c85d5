package nn

import (
	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Residual implements a ResNet block: out = ReLU(body(x) + shortcut(x)).
// The shortcut is identity when nil, otherwise a projection (1×1 conv,
// optionally followed by BN) that matches the body's output shape.
//
// In-place constraint (DESIGN.md §15): the block reads x twice — once into
// the body and once for the shortcut — so the body's FIRST layer must not
// mutate x, and with an identity shortcut the body's backward must not
// mutate the masked gradient it receives. Both hold for every model in
// internal/models: residual bodies start with Conv2D and end with
// BatchNorm, neither of which touches its input. In in-place mode the
// gradient mask is applied directly to dy (the caller hands over
// ownership); reference mode clones first.
type Residual struct {
	name     string
	body     *Sequential
	shortcut *Sequential // nil means identity
	mask     bitmask
	inPlace  bool
}

// NewResidual builds a residual block. shortcut may be nil for identity.
func NewResidual(name string, body *Sequential, shortcut *Sequential) *Residual {
	return &Residual{name: name, body: body, shortcut: shortcut}
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := r.body.Params()
	if r.shortcut != nil {
		ps = append(ps, r.shortcut.Params()...)
	}
	return ps
}

// Init initializes the body and shortcut from label-derived sub-streams.
func (r *Residual) Init(stream *rng.Stream) {
	r.body.Init(stream.Split("body"))
	if r.shortcut != nil {
		r.shortcut.Init(stream.Split("shortcut"))
	}
}

func (r *Residual) markInPlace() {
	r.inPlace = true
	r.body.markInPlace()
	if r.shortcut != nil {
		r.shortcut.markInPlace()
	}
}

// Forward implements Layer.
func (r *Residual) Forward(dev *device.Device, x *tensor.Tensor, train bool) *tensor.Tensor {
	main := r.body.Forward(dev, x, train)
	short := x
	if r.shortcut != nil {
		short = r.shortcut.Forward(dev, x, train)
	}
	main.Add(short)
	// Final ReLU with mask for backward.
	reluForward(&r.mask, main.Data())
	return main
}

// Backward implements Layer.
func (r *Residual) Backward(dev *device.Device, dy *tensor.Tensor) *tensor.Tensor {
	dsum := dy
	if !r.inPlace {
		dsum = dy.Clone()
	}
	reluBackward(r.mask, dsum.Data())
	dxMain := r.body.Backward(dev, dsum)
	if r.shortcut != nil {
		dxShort := r.shortcut.Backward(dev, dsum)
		dxMain.Add(dxShort)
	} else {
		dxMain.Add(dsum)
	}
	return dxMain
}
