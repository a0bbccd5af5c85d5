package device

import (
	"unsafe"

	"repro/internal/tensor"
)

// GEMM hot path: an L2-aware blocked kernel with packed B panels and a
// 4×8 register-tile micro-kernel, run serially on the caller's goroutine.
//
// The accumulation-order semantics of MatMul are the subject of the paper,
// so every transformation here is restricted to ones that cannot change a
// single output bit. The invariant is per OUTPUT ELEMENT: C[i][j]
// accumulates its k-partials in scheduler-chunk order, ascending k within
// each chunk, one individually-rounded float32 product and one rounded add
// per partial, with exact-zero A multiplicands skipped — exactly the
// reference kernel's sequence (gemm_test.go pins this for every part in the
// catalog). The scheduler order is resolved up front into one commit-ordered
// k sequence, and both operands are packed in that order, so the loop nest
// only walks the sequence forward: tiling M×N and blocking the sequence
// regroup WHICH LOOP VISITS each (i,j,k) triple, never the order in which
// one C element sees its partials. Packing rewrites where operand bytes
// live, never which values multiply.

// Panel geometry: one packed B panel is at most panelKC×panelNC float32s
// (256 KiB), sized to stay L2-resident while the inner kernel sweeps every
// M row across it.
const (
	panelKC = 128 // K rows per packed panel
	panelNC = 512 // N columns per packed panel
)

// The axpy sweep stores panel rows in a uint8: this fails to compile if
// a panel grows past 256 rows.
const _ = uint8(panelKC - 1)

// panelSource supplies the B operand of a GEMM panel by panel. packPanel
// writes rows [kLo,kHi) × columns [jLo,jHi) of op(B) into dst, row-major
// with row stride jHi-jLo. Implementations must write every element (the
// destination is reused scratch).
type panelSource interface {
	packPanel(dst []float32, kLo, kHi, jLo, jHi int)
}

// rowPanel serves a row-major k×n matrix: packing is a straight row copy
// that relocates the panel into contiguous, cache-resident scratch.
type rowPanel struct {
	data []float32
	ld   int // row stride (= n)
}

func (p rowPanel) packPanel(dst []float32, kLo, kHi, jLo, jHi int) {
	w := jHi - jLo
	for k := kLo; k < kHi; k++ {
		copy(dst[(k-kLo)*w:(k-kLo)*w+w], p.data[k*p.ld+jLo:k*p.ld+jHi])
	}
}

// colPanel serves op(B)=Bᵀ for a stored rows×cols matrix: panel row k is
// stored column k. The transpose happens during packing, tile by tile, so
// the full transposed matrix is never materialized (the pre-blocked kernel
// packed all of Bᵀ into device scratch first).
type colPanel struct {
	data []float32
	cols int // stored row stride of B
}

func (p colPanel) packPanel(dst []float32, kLo, kHi, jLo, jHi int) {
	w := jHi - jLo
	for j := jLo; j < jHi; j++ {
		src := p.data[j*p.cols : j*p.cols+p.cols]
		for k := kLo; k < kHi; k++ {
			dst[(k-kLo)*w+(j-jLo)] = src[k]
		}
	}
}

// im2colPanel serves the im2col expansion of an NCHW image as the B
// operand, fusing the expansion with panel packing: the column matrix is
// never materialized. The plan is loaded (input padded, offsets built)
// before the kernel runs; packing only gathers from it.
type im2colPanel struct{ plan *tensor.Im2ColPlan }

func (p im2colPanel) packPanel(dst []float32, kLo, kHi, jLo, jHi int) {
	p.plan.Panel(kLo, kHi, jLo, jHi, dst)
}

// im2colTPanel serves the TRANSPOSED im2col expansion (backward-weights
// GEMM) from the same kind of loaded plan.
type im2colTPanel struct{ plan *tensor.Im2ColPlan }

func (p im2colTPanel) packPanel(dst []float32, kLo, kHi, jLo, jHi int) {
	p.plan.PanelT(kLo, kHi, jLo, jHi, dst)
}

// gemmArgs bundles one GEMM's operands and accumulation-order policy.
type gemmArgs struct {
	ad      []float32   // op(A), m×k row-major
	src     panelSource // op(B), k×n, served panel by panel
	od      []float32   // C, m×n, zeroed
	m, k, n int
	kseq    []int           // commit-ordered k indices: a permutation of [0,k)
	fp16    bool            // Tensor-Core path: round A scalars and B panels to fp16
	scratch *tensor.Scratch // pack buffers' pool; nil = shared
}

// commitOrder writes the commit-ordered k sequence of a split-K GEMM into
// dst (grown as needed): every scheduler chunk in commit order (nil =
// ascending), ascending k inside each chunk. With one chunk it is 0..k-1.
func commitOrder(dst []int, k, chunks int, order []int) []int {
	dst = growInts(dst, k)[:0]
	for ci := 0; ci < chunks; ci++ {
		c := ci
		if order != nil {
			c = order[ci]
		}
		for kk := c * k / chunks; kk < (c+1)*k/chunks; kk++ {
			dst = append(dst, kk)
		}
	}
	return dst
}

// gemmBlocked runs the blocked packed-panel kernel, packing into pooled
// scratch. Loop nest: K block of the commit-ordered sequence → N tile →
// pack panel once → 4-row A strip → 8-column register tile. The panel is
// packed once per (K block, N tile) and reused across every strip; each
// strip's A values are packed in the same sequence order. A strip holding
// an exact zero (after fp16 rounding), the m%4 rows and the n%8 columns
// run the per-row axpy sweep, which gathers the panel rows of each row's
// nonzero multipliers and then calls axpy once for each, in sequence
// order (zero multipliers skipped, as the reference does); every other
// strip runs kern4x8, which keeps a 4×8 block of C in registers across
// the whole K block.
func gemmBlocked(g *gemmArgs) {
	kcMax := min(g.k, panelKC)
	panel := g.scratch.Get(kcMax * min(g.n, panelNC))
	stripBuf := g.scratch.Get(16*kcMax + 3)
	defer g.scratch.Put(panel)
	defer g.scratch.Put(stripBuf)
	strip := align16(stripBuf)
	// The axpy sweep's kept panel rows, as bytes to keep the frame small:
	// a larger one doubled the stack of SmallCNN's training goroutines.
	var kept [panelKC]uint8
	for pb := 0; pb < g.k; pb += panelKC {
		seq := g.kseq[pb:min(pb+panelKC, g.k)]
		kc := len(seq)
		a := strip[:16*kc]
		for jb := 0; jb < g.n; jb += panelNC {
			jbHi := min(jb+panelNC, g.n)
			w := jbHi - jb
			// Pack the panel in sequence order, one run of consecutive k
			// at a time (a whole block in Deterministic mode).
			for p := 0; p < kc; {
				e := p + 1
				for e < kc && seq[e] == seq[e-1]+1 {
					e++
				}
				g.src.packPanel(panel[p*w:e*w], seq[p], seq[p]+e-p, jb, jbHi)
				p = e
			}
			if g.fp16 {
				// Pre-round the packed panel once: rounding is a pure
				// function of the element, so the products match the
				// reference kernel's per-use rounding bit for bit.
				roundPanel(panel[:kc*w])
			}
			for i := 0; i < g.m; i += 4 {
				rows := min(4, g.m-i)
				tiled := 0
				if rows == 4 && w >= 8 && g.packStrip(a, i, seq) {
					tiled = w &^ 7
					kern4x8(kc, a, panel[:kc*w], w, g.od[i*g.n+jb:], g.n, tiled/8)
				}
				if tiled == w {
					continue
				}
				for r := 0; r < rows; r++ {
					arow := g.ad[(i+r)*g.k : (i+r)*g.k+g.k]
					crow := g.od[(i+r)*g.n+jb+tiled : (i+r)*g.n+jbHi]
					// Gather the rows of the nonzero multipliers first,
					// counting them without a jump: the slot is always
					// written, and the count only moves past it when the
					// multiplier is != 0, so ±0 is dropped (the reference
					// kernel skips exact zeros too) and NaN is kept.
					nz := 0
					for p, kk := range seq {
						kept[nz] = uint8(p)
						nz += nonzero(g.multiplier(arow, kk))
					}
					for _, p := range kept[:nz] {
						row := int(p) * w
						axpy(g.multiplier(arow, seq[p]), panel[row+tiled:row+w], crow)
					}
				}
			}
		}
	}
}

// multiplier returns arow[kk], rounded to fp16 on Tensor-Core parts.
func (g *gemmArgs) multiplier(arow []float32, kk int) float32 {
	if g.fp16 {
		return fp16Round(arow[kk])
	}
	return arow[kk]
}

// packStrip packs rows [i, i+4) of op(A) at the columns in seq into dst as
// kern4x8 reads them: dst[p*16+r*4+l] = A[i+r][seq[p]] for each lane
// l < 4, fp16-rounded on Tensor-Core parts. It reports whether the strip
// is free of exact zeros, i.e. whether kern4x8 may run it without the
// zero skip, and stops at the first zero (the axpy sweep reads A itself).
func (g *gemmArgs) packStrip(dst []float32, i int, seq []int) bool {
	k := g.k
	a0 := g.ad[i*k : i*k+k]
	a1 := g.ad[(i+1)*k : (i+1)*k+k]
	a2 := g.ad[(i+2)*k : (i+2)*k+k]
	a3 := g.ad[(i+3)*k : (i+3)*k+k]
	for p, kk := range seq {
		v0, v1, v2, v3 := a0[kk], a1[kk], a2[kk], a3[kk]
		if g.fp16 {
			v0, v1, v2, v3 = fp16Round(v0), fp16Round(v1), fp16Round(v2), fp16Round(v3)
		}
		if v0 == 0 || v1 == 0 || v2 == 0 || v3 == 0 {
			return false
		}
		l := (*[16]float32)(dst[p*16 : p*16+16])
		l[0], l[1], l[2], l[3] = v0, v0, v0, v0
		l[4], l[5], l[6], l[7] = v1, v1, v1, v1
		l[8], l[9], l[10], l[11] = v2, v2, v2, v2
		l[12], l[13], l[14], l[15] = v3, v3, v3, v3
	}
	return true
}

// nonzero returns 1 when v != 0 (NaN included) and 0 for ±0, from a
// SETcc rather than a jump.
func nonzero(v float32) int {
	var b int
	if v != 0 {
		b = 1
	}
	return b
}

// align16 returns the suffix of s that starts on a 16-byte boundary (s
// must have room for the up to 3 skipped elements). The Go heap never
// moves an object, so the alignment holds for the buffer's lifetime.
func align16(s []float32) []float32 {
	mis := uintptr(unsafe.Pointer(unsafe.SliceData(s))) & 15
	return s[((16-mis)&15)/4:]
}

// roundPanel rounds a packed panel to fp16 precision in place.
func roundPanel(p []float32) {
	for i, v := range p {
		p[i] = fp16Round(v)
	}
}

// transposeInto writes the transpose of src (r×c, row-major) into dst
// (c×r), walking 32×32 tiles so both source reads and destination writes
// stay cache-resident. Used to materialize op(A) when A is given
// transposed; the B operand never needs it (colPanel transposes during
// packing).
func transposeInto(dst, src []float32, r, c int) {
	const tile = 32
	for i0 := 0; i0 < r; i0 += tile {
		iMax := min(i0+tile, r)
		for j0 := 0; j0 < c; j0 += tile {
			jMax := min(j0+tile, c)
			for i := i0; i < iMax; i++ {
				row := src[i*c : i*c+c]
				for j := j0; j < jMax; j++ {
					dst[j*r+i] = row[j]
				}
			}
		}
	}
}

// vadd computes y[j] += x[j] for every j. The 4-way unroll with the
// up-front length clamp hoists bounds checks out of the loop body. Used by
// the column-sum reduction.
func vadd(x, y []float32) {
	x = x[:len(y)]
	j := 0
	for ; j+3 < len(y); j += 4 {
		y[j] += x[j]
		y[j+1] += x[j+1]
		y[j+2] += x[j+2]
		y[j+3] += x[j+3]
	}
	for ; j < len(y); j++ {
		y[j] += x[j]
	}
}
