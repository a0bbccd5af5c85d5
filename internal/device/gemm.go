package device

import "repro/internal/tensor"

// GEMM hot path: an L2-aware blocked kernel with packed B panels and
// optional intra-kernel row sharding (intra.go).
//
// The accumulation-order semantics of MatMul are the subject of the paper,
// so every transformation here is restricted to ones that cannot change a
// single output bit. The invariant is per OUTPUT ELEMENT: C[i][j]
// accumulates its k-partials in scheduler-chunk order, ascending k within
// each chunk, one individually-rounded float32 multiply-add per partial,
// with exact-zero A multiplicands skipped — exactly the reference kernel's
// sequence (gemm_test.go pins this for every part in the catalog). Tiling
// M×N×K and sharding M only regroup WHICH LOOP VISITS each (i,j,k) triple;
// because K blocks are walked in ascending order inside a chunk and each
// (i,j) pair belongs to exactly one row shard and one N tile, the
// per-element sequence is untouched. Packing rewrites where operand bytes
// live, never which values multiply.

// Panel geometry: one packed B panel is at most panelKC×panelNC float32s
// (256 KiB), sized to stay L2-resident while the inner kernel sweeps every
// M row across it.
const (
	panelKC = 128 // K rows per packed panel
	panelNC = 512 // N columns per packed panel
)

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
// never materialized. The plan is loaded (input padded, offsets built) on
// the caller's goroutine before dispatch; shards only gather from it.
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

// gemmArgs bundles one GEMM's operands and accumulation-order policy so
// row shards can execute the identical kernel over disjoint row ranges.
type gemmArgs struct {
	ad      []float32   // op(A), m×k row-major
	src     panelSource // op(B), k×n, served panel by panel
	od      []float32   // C, m×n, zeroed
	m, k, n int
	chunks  int   // scheduler split-K chunk count (1 = deterministic)
	order   []int // chunk commit order, nil = ascending
	fp16    bool  // Tensor-Core path: round A scalars and B panels to fp16
}

// gemmBlocked runs the blocked packed-panel kernel over C rows
// [rowLo,rowHi) using the caller's panel scratch (≥ panelKC*panelNC or the
// clamped equivalent). Loop nest: scheduler chunk → K block (ascending) →
// N tile → pack panel once → sweep rows. The panel is packed once per
// (K block, N tile) and reused across every row in the shard.
func gemmBlocked(g *gemmArgs, rowLo, rowHi int, panel []float32) {
	for ci := 0; ci < g.chunks; ci++ {
		c := ci
		if g.order != nil {
			c = g.order[ci]
		}
		kLo := c * g.k / g.chunks
		kHi := (c + 1) * g.k / g.chunks
		for kb := kLo; kb < kHi; kb += panelKC {
			kbHi := min(kb+panelKC, kHi)
			for jb := 0; jb < g.n; jb += panelNC {
				jbHi := min(jb+panelNC, g.n)
				w := jbHi - jb
				g.src.packPanel(panel, kb, kbHi, jb, jbHi)
				if g.fp16 {
					// Pre-round the packed panel once: rounding is a pure
					// function of the element, so the products match the
					// reference kernel's per-use rounding bit for bit.
					roundPanel(panel[:(kbHi-kb)*w])
				}
				for i := rowLo; i < rowHi; i++ {
					arow := g.ad[i*g.k : i*g.k+g.k]
					crow := g.od[i*g.n+jb : i*g.n+jbHi]
					for kk := kb; kk < kbHi; kk++ {
						av := arow[kk]
						if g.fp16 {
							av = fp16Round(av)
						}
						if av == 0 {
							// Skipping an exact-zero multiplier is the
							// reference kernel's behaviour too.
							continue
						}
						axpy(av, panel[(kk-kb)*w:(kk-kb)*w+w], crow)
					}
				}
			}
		}
	}
}

// panelScratch returns pooled pack scratch sized for one panel of a k×n
// operand. Shards call this independently so each owns private scratch.
func panelScratch(k, n int) []float32 {
	return tensor.GetScratch(min(k, panelKC) * min(n, panelNC))
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
