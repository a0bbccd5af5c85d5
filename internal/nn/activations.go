package nn

import (
	"math"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// bitmask is packed boolean storage for activation masks: 1 bit per
// element instead of the 1 byte a []bool costs, so a ReLU over a conv
// feature map keeps its backward mask in 1/8th the memory.
type bitmask []uint64

// grow resizes the mask to cover n bits, reusing the backing array when
// possible. Contents are unspecified; callers set every bit they read.
func (m *bitmask) grow(n int) {
	words := (n + 63) / 64
	if cap(*m) < words {
		*m = make([]uint64, words)
		return
	}
	*m = (*m)[:words]
}

// reluForward applies max(0, v) to d in place and records in m which
// elements it kept. No branch depends on the data: keep is computed from
// the float's bits u, as the sign bit of uint64(u-1) - 0x7f800000, which
// is set exactly when 0 < u <= 0x7f800000, i.e. when v > 0 (+Inf
// included, every NaN excluded). The element becomes u & -keep, so it
// stays v when kept and becomes +0 otherwise: ±0, negatives and NaNs of
// either sign all come out +0. Each mask word is built in a register and
// stored once.
func reluForward(m *bitmask, d []float32) {
	m.grow(len(d))
	for w := range *m {
		chunk := d[w*64 : min(w*64+64, len(d))]
		var word uint64
		for i, v := range chunk {
			u := math.Float32bits(v)
			keep := (uint64(u-1) - 0x7f800000) >> 63
			chunk[i] = math.Float32frombits(u & -uint32(keep))
			word |= keep << (uint(i) & 63)
		}
		(*m)[w] = word
	}
}

// reluBackward masks the gradient d with the lanes reluForward kept: each
// element's bits are ANDed with all ones (kept) or zero (dropped, giving
// +0).
func reluBackward(m bitmask, d []float32) {
	for w, word := range m {
		chunk := d[w*64 : min(w*64+64, len(d))]
		for i, g := range chunk {
			chunk[i] = math.Float32frombits(math.Float32bits(g) & -uint32(word&1))
			word >>= 1
		}
	}
}

// ReLU applies max(0, x) elementwise. Elementwise ops involve no reductions
// and are order-insensitive, so they run identically on every device.
//
// In reference mode Forward/Backward clone their inputs; once the owning
// Sequential grants in-place mode (UseWorkspace) they mutate the input
// tensor instead — bit-identical, because the per-element operation is
// unchanged and the chain guarantees nothing else reads the input again.
type ReLU struct {
	name    string
	mask    bitmask
	inPlace bool
}

// NewReLU builds a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Init implements Layer.
func (r *ReLU) Init(*rng.Stream) {}

func (r *ReLU) markInPlace() { r.inPlace = true }

// Forward implements Layer.
func (r *ReLU) Forward(dev *device.Device, x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x
	if !r.inPlace {
		out = x.Clone()
	}
	reluForward(&r.mask, out.Data())
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(dev *device.Device, dy *tensor.Tensor) *tensor.Tensor {
	dx := dy
	if !r.inPlace {
		dx = dy.Clone()
	}
	reluBackward(r.mask, dx.Data())
	return dx
}

// Dropout zeroes activations with probability Rate during training and
// scales survivors by 1/(1-Rate) (inverted dropout). The mask stream is an
// algorithmic noise source: it is split off the init stream, so a fixed
// seed policy (IMPL/CONTROL variants) makes dropout reproducible.
//
// Like ReLU, Dropout clones in reference mode and mutates in place once
// its Sequential grants in-place mode; the stream draw sequence and the
// per-element arithmetic are identical either way.
type Dropout struct {
	name    string
	rate    float64
	stream  *rng.Stream
	mask    []float32
	active  bool // mask valid for the last Forward (train mode, rate > 0)
	inPlace bool
}

// NewDropout builds a dropout layer with the given drop rate in [0, 1).
func NewDropout(name string, rate float64) *Dropout {
	return &Dropout{name: name, rate: rate}
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Init captures the stochastic mask stream.
func (d *Dropout) Init(stream *rng.Stream) { d.stream = stream.Split("mask") }

func (d *Dropout) markInPlace() { d.inPlace = true }

// Forward implements Layer.
func (d *Dropout) Forward(dev *device.Device, x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.rate == 0 {
		d.active = false
		return x
	}
	out := x
	if !d.inPlace {
		out = x.Clone()
	}
	data := out.Data()
	if cap(d.mask) < len(data) {
		d.mask = make([]float32, len(data))
	}
	d.mask = d.mask[:len(data)]
	d.active = true
	keep := float32(1 / (1 - d.rate))
	for i := range data {
		if d.stream.Bernoulli(d.rate) {
			d.mask[i] = 0
			data[i] = 0
		} else {
			d.mask[i] = keep
			data[i] *= keep
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(dev *device.Device, dy *tensor.Tensor) *tensor.Tensor {
	if !d.active {
		return dy
	}
	dx := dy
	if !d.inPlace {
		dx = dy.Clone()
	}
	data := dx.Data()
	for i := range data {
		data[i] *= d.mask[i]
	}
	return dx
}
