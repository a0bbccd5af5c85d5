package device

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// The chunked accumulation-order semantics of MatMul/SumCols ARE the
// paper's subject, so the hot-path optimizations (operand packing,
// register-blocked AXPY, fp16 pre-rounding) must not move a single bit.
// These tests pin the optimized kernels against verbatim copies of the
// pre-optimization reference implementations, replaying the exact same
// scheduler entropy.

// refMatMul is the original scalar MatMul kernel (pre-optimization),
// including the Tensor-Core path, with the entropy stream supplied by the
// caller so optimized and reference runs see identical scheduler draws.
func refMatMul(d *Device, entropy *rng.Stream, a, b *tensor.Tensor, transA, transB bool) *tensor.Tensor {
	am, ak := matDims(a, transA)
	_, bn := matDims(b, transB)
	ad := refMaterialize(a, transA)
	bd := refMaterialize(b, transB)

	out := tensor.New(am, bn)
	od := out.Data()

	if d.cfg.TensorCores {
		for i := 0; i < am; i++ {
			arow := ad[i*ak : (i+1)*ak]
			crow := od[i*bn : (i+1)*bn]
			for kk := 0; kk < ak; kk++ {
				av := fp16Round(arow[kk])
				if av == 0 {
					continue
				}
				brow := bd[kk*bn : (kk+1)*bn]
				for j, bv := range brow {
					crow[j] += av * fp16Round(bv)
				}
			}
		}
		return out
	}

	chunks := 1
	if d.nondeterministic() {
		chunks = d.cfg.reorderChunks(ak)
	}
	var order []int
	if chunks > 1 && d.nondeterministic() {
		order = entropy.Perm(chunks)
	}
	for ci := 0; ci < chunks; ci++ {
		c := ci
		if order != nil {
			c = order[ci]
		}
		kLo := c * ak / chunks
		kHi := (c + 1) * ak / chunks
		for i := 0; i < am; i++ {
			arow := ad[i*ak : (i+1)*ak]
			crow := od[i*bn : (i+1)*bn]
			for k := kLo; k < kHi; k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				brow := bd[k*bn : (k+1)*bn]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
	return out
}

func refMaterialize(t *tensor.Tensor, trans bool) []float32 {
	if !trans {
		return t.Data()
	}
	r, c := t.Dim(0), t.Dim(1)
	src := t.Data()
	dst := make([]float32, r*c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			dst[j*r+i] = src[i*c+j]
		}
	}
	return dst
}

// testMatrix fills a tensor with a mix of magnitudes, exact zeros and
// negatives so the zero-skip and rounding paths are all exercised.
func testMatrix(s *rng.Stream, rows, cols int) *tensor.Tensor {
	return sparseMatrix(s, rows, cols, 1.0/8)
}

// zeroDensities are the exact-zero fractions the GEMM reference tests draw
// operands at. With none, every full A strip runs the register tile; at 1
// in 8 most 4-row strips hold a zero and run the axpy sweep; at one half
// the operand looks like a ReLU-gated gradient; at 3/4 most multipliers a
// sweep gathers are dropped, and at 1 all of them are.
var zeroDensities = []float64{0, 1.0 / 8, 1.0 / 2, 3.0 / 4, 1}

// plantSweepSpecials writes a NaN and a -0 multiplier into the last row
// of op(A) (stored k×m when transA), at k = 0 and k/2. The -0 sends that
// row's strip to the axpy sweep, which must keep the NaN and drop the -0
// as an exact zero. With b non-nil, op(B)[k/2][0] becomes +Inf, so a kept
// -0 would add a second NaN after the first, whose payload wins. Every
// other NaN in a test GEMM is the planted one, so the result does not
// depend on which operand an add propagates when two NaNs meet.
func plantSweepSpecials(a, b *tensor.Tensor, transA, transB bool) {
	m, k := matDims(a, transA)
	at := func(kk int) *float32 {
		if transA {
			return &a.Data()[kk*m+m-1]
		}
		return &a.Data()[(m-1)*k+kk]
	}
	*at(k / 2) = float32(math.Copysign(0, -1))
	*at(0) = math.Float32frombits(0x7fc0_0bad)
	if b != nil {
		if _, n := matDims(b, transB); transB {
			b.Data()[k/2] = float32(math.Inf(1))
		} else {
			b.Data()[k/2*n] = float32(math.Inf(1))
		}
	}
}

// sparseMatrix is testMatrix with the given fraction of exact zeros.
func sparseMatrix(s *rng.Stream, rows, cols int, zeros float64) *tensor.Tensor {
	t := tensor.New(rows, cols)
	d := t.Data()
	for i := range d {
		switch {
		case s.Bernoulli(zeros):
			d[i] = 0 // exact zero: hits the av==0 skip
		case s.Intn(8) == 0:
			d[i] = float32(s.Norm()) * 1e-4
		default:
			d[i] = float32(s.Norm())
		}
	}
	return t
}

func TestMatMulBitIdenticalToReference(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {16, 64, 33}, {31, 128, 17}, {8, 300, 12},
		// ResNet stage-1 forward (4 N panels of panelNC) and 3 K blocks
		// with N a multiple of neither 4 nor 8: both cross panel edges.
		{8, 72, 2048}, {5, 300, 1030},
		// m%4 != 0 and n%8 != 0 around whole tiles, and n < 8 (no tile).
		{6, 20, 5}, {7, 9, 13}, {13, 40, 23}, {4, 3, 8},
		// k > panelKC: V100's 15-row chunks straddle the K block edge.
		{12, 300, 20},
		// k = 8 < V100's 20 chunks: one k row per chunk.
		{9, 8, 17},
	}
	for _, cfg := range Catalog {
		for _, mode := range []Mode{Default, Deterministic} {
			for si, sh := range shapes {
				for _, zeros := range zeroDensities {
					for _, transA := range []bool{false, true} {
						for _, transB := range []bool{false, true} {
							seed := uint64(1000*si + sh.m + 2*sh.k + 3*sh.n)
							s := rng.New(seed)
							var a, b *tensor.Tensor
							if transA {
								a = sparseMatrix(s.Split("a"), sh.k, sh.m, zeros)
							} else {
								a = sparseMatrix(s.Split("a"), sh.m, sh.k, zeros)
							}
							if transB {
								b = sparseMatrix(s.Split("b"), sh.n, sh.k, zeros)
							} else {
								b = sparseMatrix(s.Split("b"), sh.k, sh.n, zeros)
							}
							if zeros > 0 {
								plantSweepSpecials(a, b, transA, transB)
							}
							// Two devices with identical entropy seeds: one
							// runs the optimized kernel, the other drives the
							// reference copy.
							devOpt := New(cfg, mode, rng.New(seed).Split("hw"))
							devRef := New(cfg, mode, rng.New(seed).Split("hw"))
							got := devOpt.MatMul(a, b, transA, transB)
							want := refMatMul(devRef, devRef.entropy, a, b, transA, transB)
							if !tensor.Equal(got, want) {
								t.Fatalf("%s/%s m=%d k=%d n=%d zeros=%g transA=%v transB=%v: optimized MatMul diverged from reference (max diff %g)",
									cfg.Name, mode, sh.m, sh.k, sh.n, zeros, transA, transB, tensor.MaxAbsDiff(got, want))
							}
						}
					}
				}
			}
		}
	}
}

// TestMatMulTensorCoreFP16ZeroSkip: on Tensor-Core parts the zero test
// applies to A after fp16 rounding. A values below half the smallest fp16
// subnormal are nonzero in float32 but round to zero, so their strips must
// take the skipping axpy sweep; B carries infinities, so a rounded-zero
// multiplier that reached the register tile would turn 0·Inf into NaN.
func TestMatMulTensorCoreFP16ZeroSkip(t *testing.T) {
	const m, k, n = 10, 40, 21
	s := rng.New(77)
	a := sparseMatrix(s.Split("a"), m, k, 0)
	ad := a.Data()
	for i := range ad {
		// Rows 0-3 stay dense: their strip runs the tile. Rows 4-7 get
		// one tiny value each; rows 8-9 (the m%4 tail) get several.
		r := i / k
		if (r >= 4 && r < 8 && i%k == 3*r) || (r >= 8 && i%5 == 0) {
			ad[i] = float32(s.Norm()) * 1e-9
			if fp16Round(ad[i]) != 0 || ad[i] == 0 {
				t.Fatalf("test value %g does not round to fp16 zero", ad[i])
			}
		}
	}
	b := sparseMatrix(s.Split("b"), k, n, 0)
	bd := b.Data()
	for i := 0; i < len(bd); i += 7 {
		bd[i] = float32(math.Inf(1 - 2*(i%2)))
	}
	for _, mode := range []Mode{Default, Deterministic} {
		got := New(RTX5000TC, mode, rng.New(1)).MatMul(a, b, false, false)
		want := refMatMul(New(RTX5000TC, mode, rng.New(1)), nil, a, b, false, false)
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("%s: C[%d][%d] = %#x, reference %#x", mode, i/n, i%n,
					math.Float32bits(v), math.Float32bits(want.Data()[i]))
			}
		}
	}
}

// TestMatMulScratchReuseAcrossCalls re-runs the same matmul many times on
// one device (the training-step pattern) and interleaves different shapes,
// making sure pack-buffer reuse never leaks state between calls.
func TestMatMulScratchReuseAcrossCalls(t *testing.T) {
	s := rng.New(7)
	big := testMatrix(s.Split("big"), 40, 60)
	bigB := testMatrix(s.Split("bigB"), 50, 60)  // transB operand (n×k)
	small := testMatrix(s.Split("small"), 6, 10) // shrinks the scratch use
	smallB := testMatrix(s.Split("smallB"), 4, 10)

	dev := New(V100, Deterministic, nil)
	wantBig := refMatMul(New(V100, Deterministic, nil), nil, big, bigB, false, true)
	wantSmall := refMatMul(New(V100, Deterministic, nil), nil, small, smallB, false, true)
	for i := 0; i < 5; i++ {
		if got := dev.MatMul(big, bigB, false, true); !tensor.Equal(got, wantBig) {
			t.Fatalf("iteration %d: big matmul diverged after scratch reuse", i)
		}
		if got := dev.MatMul(small, smallB, false, true); !tensor.Equal(got, wantSmall) {
			t.Fatalf("iteration %d: small matmul diverged after scratch reuse", i)
		}
	}
}

// TestSumRowsBitIdenticalToReference pins SumRows against a reference
// that draws every row's chunk order up front, in row order, before any
// row is reduced: drawing each order just before its row must leave the
// entropy stream, and so every output bit, unchanged.
func TestSumRowsBitIdenticalToReference(t *testing.T) {
	for _, cfg := range []Config{CPU, V100, TPUv2} {
		for _, mode := range []Mode{Default, Deterministic} {
			m := testMatrix(rng.New(9).Split("m"), 64, 700)
			dev := New(cfg, mode, rng.New(9).Split("hw"))
			got := dev.SumRows(m)
			after := dev.entropy.Uint64()

			rows, cols := m.Dim(0), m.Dim(1)
			ref := New(cfg, mode, rng.New(9).Split("hw"))
			chunks := 1
			if ref.nondeterministic() {
				chunks = cfg.reorderChunks(cols)
			}
			orders := make([][]int, rows)
			if chunks > 1 {
				for r := range orders {
					orders[r] = ref.entropy.Perm(chunks)
				}
			}
			for r := 0; r < rows; r++ {
				want := reduceChunkedOrder(m.Data()[r*cols:(r+1)*cols], chunks, orders[r])
				if math.Float32bits(got[r]) != math.Float32bits(want) {
					t.Fatalf("%s/%s: SumRows[%d] = %x, want %x", cfg.Name, mode, r,
						math.Float32bits(got[r]), math.Float32bits(want))
				}
			}
			if want := ref.entropy.Uint64(); after != want {
				t.Fatalf("%s/%s: entropy stream diverged after SumRows", cfg.Name, mode)
			}
		}
	}
}

func TestSumColsBitIdenticalToReference(t *testing.T) {
	for _, cfg := range []Config{CPU, V100, TPUv2} {
		for _, mode := range []Mode{Default, Deterministic} {
			m := testMatrix(rng.New(3).Split("m"), 37, 23)
			devOpt := New(cfg, mode, rng.New(3).Split("hw"))
			devRef := New(cfg, mode, rng.New(3).Split("hw"))
			got := devOpt.SumCols(m)

			// Reference: the pre-optimization scalar loop.
			rows, cols := m.Dim(0), m.Dim(1)
			want := make([]float32, cols)
			chunks := 1
			if devRef.nondeterministic() {
				chunks = cfg.reorderChunks(rows)
			}
			order := devRef.schedOrder(chunks)
			data := m.Data()
			for ci := 0; ci < chunks; ci++ {
				c := ci
				if order != nil {
					c = order[ci]
				}
				lo := c * rows / chunks
				hi := (c + 1) * rows / chunks
				for r := lo; r < hi; r++ {
					row := data[r*cols : (r+1)*cols]
					for j, v := range row {
						want[j] += v
					}
				}
			}
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("%s/%s: SumCols[%d] = %x, want %x", cfg.Name, mode, j,
						math.Float32bits(got[j]), math.Float32bits(want[j]))
				}
			}
		}
	}
}
