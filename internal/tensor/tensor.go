// Package tensor implements the dense float32 tensors used throughout the
// training stack. Tensors are row-major, contiguous, and deliberately
// simple: the accelerator simulation in internal/device owns every
// reduction whose floating-point ordering matters, so this package only
// provides shape bookkeeping, element access and order-insensitive
// elementwise operations.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. A zero-dimensional
// tensor (no dims) holds a single scalar.
//
// The panic messages below format a copy of the shape rather than the
// parameter itself: handing the variadic slice to fmt would make it escape,
// heap-allocating the []int at every call site even on the happy path. The
// copy keeps shape non-escaping, so callers like device.Alloc build their
// shape argument on the stack (the zero-alloc steady state depends on it).
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", append([]int(nil), shape...), n, len(data)))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// FromSliceInto rebinds hdr to wrap data (not copied) with the given shape
// and returns hdr. It is the header-reuse form of FromSlice: a layer that
// wraps a scratch buffer every step keeps one Tensor header alive and
// rebinds it instead of allocating a fresh header (struct + shape slice)
// per call. hdr must not be nil and must not be aliased by live views.
func FromSliceInto(hdr *Tensor, data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", append([]int(nil), shape...), n, len(data)))
	}
	hdr.shape = append(hdr.shape[:0], shape...)
	hdr.data = data
	return hdr
}

// Shape returns the tensor's dimensions. The caller must not mutate it.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view over the same storage with a new shape. One
// dimension may be -1 to infer its size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n, infer := 1, -1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dims in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	out := append([]int(nil), shape...)
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dim for %v from %d elements", shape, len(t.data)))
		}
		out[infer] = len(t.data) / n
		n *= out[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape %v incompatible with %d elements", shape, len(t.data)))
	}
	return &Tensor{shape: out, data: t.data}
}

// ReshapeInto is the header-reuse form of Reshape: it binds hdr as a view
// over t's storage with the new shape (one dimension may be -1 to infer)
// and returns hdr without allocating. See FromSliceInto for the ownership
// rules on hdr.
func (t *Tensor) ReshapeInto(hdr *Tensor, shape ...int) *Tensor {
	n, infer := 1, -1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dims in ReshapeInto")
			}
			infer = i
			continue
		}
		n *= d
	}
	hdr.shape = append(hdr.shape[:0], shape...)
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dim for %v from %d elements", append([]int(nil), shape...), len(t.data)))
		}
		hdr.shape[infer] = len(t.data) / n
		n *= hdr.shape[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: ReshapeInto %v incompatible with %d elements", append([]int(nil), shape...), len(t.data)))
	}
	hdr.data = t.data
	return hdr
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given indices.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", x, i, t.shape[i]))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to +0. clear compiles to a memclr, which the
// element loop in Fill does not.
func (t *Tensor) Zero() { clear(t.data) }

// AddScaled computes t += alpha*u elementwise. Shapes must match.
func (t *Tensor) AddScaled(alpha float32, u *Tensor) {
	mustSameLen(t, u)
	for i, v := range u.data {
		t.data[i] += alpha * v
	}
}

// Add computes t += u elementwise.
func (t *Tensor) Add(u *Tensor) { t.AddScaled(1, u) }

// Sub computes t -= u elementwise.
func (t *Tensor) Sub(u *Tensor) { t.AddScaled(-1, u) }

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.data {
		t.data[i] *= alpha
	}
}

// MulElem computes t *= u elementwise.
func (t *Tensor) MulElem(u *Tensor) {
	mustSameLen(t, u)
	for i, v := range u.data {
		t.data[i] *= v
	}
}

func mustSameLen(a, b *Tensor) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: length mismatch %d vs %d", len(a.data), len(b.data)))
	}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Equal reports whether a and b are bitwise identical in shape and data.
func Equal(a, b *Tensor) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		if math.Float32bits(a.data[i]) != math.Float32bits(b.data[i]) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference.
func MaxAbsDiff(a, b *Tensor) float64 {
	mustSameLen(a, b)
	var m float64
	for i := range a.data {
		d := math.Abs(float64(a.data[i]) - float64(b.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// ArgmaxRowsInto treats t as a (rows, cols) matrix and writes the index of
// each row's maximum element into dst (which must have length ≥ rows),
// returning dst[:rows]. Ties resolve to the lowest index, making the result
// independent of any accumulation ordering.
func (t *Tensor) ArgmaxRowsInto(dst []int) []int {
	if t.Rank() != 2 {
		panic("tensor: ArgmaxRowsInto requires rank 2")
	}
	rows, cols := t.shape[0], t.shape[1]
	if len(dst) < rows {
		panic(fmt.Sprintf("tensor: ArgmaxRowsInto dst len %d < %d rows", len(dst), rows))
	}
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		best := 0
		for c := 1; c < cols; c++ {
			if row[c] > row[best] {
				best = c
			}
		}
		dst[r] = best
	}
	return dst[:rows]
}

// String renders a compact description (shape plus leading values).
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if len(t.data) > 8 {
		b.WriteString(" ...")
	}
	b.WriteString("]")
	return b.String()
}
