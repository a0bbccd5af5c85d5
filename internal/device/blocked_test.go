package device

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestMatMulRandomizedVsReference drives the blocked packed-panel kernel
// through ~200 random (m, k, n, transA, transB, part, mode, seed) tuples,
// each at every zero density, and requires byte-identical output to the
// retained naive reference kernel.
func TestMatMulRandomizedVsReference(t *testing.T) {
	const tuples = 200
	s := rng.New(42)
	dims := s.Split("dims")
	pick := s.Split("pick")
	for i := 0; i < tuples; i++ {
		m := 1 + dims.Intn(48)
		k := 1 + dims.Intn(160)
		n := 1 + dims.Intn(64)
		transA := pick.Intn(2) == 1
		transB := pick.Intn(2) == 1
		cfg := Catalog[pick.Intn(len(Catalog))]
		mode := Mode(pick.Intn(2))
		seed := uint64(i)*7919 + 13

		for _, zeros := range zeroDensities {
			data := rng.New(seed)
			var a, b *tensor.Tensor
			if transA {
				a = sparseMatrix(data.Split("a"), k, m, zeros)
			} else {
				a = sparseMatrix(data.Split("a"), m, k, zeros)
			}
			if transB {
				b = sparseMatrix(data.Split("b"), n, k, zeros)
			} else {
				b = sparseMatrix(data.Split("b"), k, n, zeros)
			}
			if zeros > 0 {
				plantSweepSpecials(a, b, transA, transB)
			}

			devRef := New(cfg, mode, rng.New(seed).Split("hw"))
			want := refMatMul(devRef, devRef.entropy, a, b, transA, transB)

			devOpt := New(cfg, mode, rng.New(seed).Split("hw"))
			if got := devOpt.MatMul(a, b, transA, transB); !tensor.Equal(got, want) {
				t.Fatalf("tuple %d (%s/%s m=%d k=%d n=%d zeros=%g tA=%v tB=%v): blocked kernel diverged (max diff %g)",
					i, cfg.Name, mode, m, k, n, zeros, transA, transB, tensor.MaxAbsDiff(got, want))
			}
		}
	}
}

// convGeoms returns a spread of convolution geometries covering stride,
// padding, multi-channel and panel-boundary-crossing column counts.
func convGeoms() []tensor.ConvGeom {
	return []tensor.ConvGeom{
		{Batch: 2, InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Batch: 1, InC: 1, InH: 5, InW: 7, OutC: 2, KH: 3, KW: 3, Stride: 2, Pad: 0},
		{Batch: 3, InC: 2, InH: 9, InW: 9, OutC: 5, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{Batch: 2, InC: 4, InH: 16, InW: 16, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}, // ColCols=512+: crosses a panel boundary
		{Batch: 1, InC: 2, InH: 4, InW: 4, OutC: 2, KH: 1, KW: 1, Stride: 1, Pad: 0},
	}
}

// TestFusedIm2ColGEMMBitIdentical checks that the fused conv GEMMs
// (MatMulIm2Col, MatMulIm2ColT) are byte-identical to a MatMul over an
// explicitly materialized column matrix, for every part, mode and zero
// density.
func TestFusedIm2ColGEMMBitIdentical(t *testing.T) {
	for gi, g := range convGeoms() {
		for _, zeros := range zeroDensities {
			s := rng.New(uint64(100 + gi))
			x := tensor.New(g.Batch, g.InC, g.InH, g.InW)
			xd := x.Data()
			src := sparseMatrix(s.Split("x"), 1, len(xd), zeros)
			copy(xd, src.Data())
			w := sparseMatrix(s.Split("w"), g.OutC, g.ColRows(), zeros)
			dyMat := sparseMatrix(s.Split("dy"), g.OutC, g.ColCols(), zeros)
			if zeros > 0 {
				plantSweepSpecials(w, nil, false, false)
				plantSweepSpecials(dyMat, nil, false, false)
			}
			fusedMatchesMaterialized(t, gi, g, zeros, x, w, dyMat)
		}
	}
}

// fusedMatchesMaterialized runs TestFusedIm2ColGEMMBitIdentical's
// comparison for one geometry and operand set.
func fusedMatchesMaterialized(t *testing.T, gi int, g tensor.ConvGeom, zeros float64, x, w, dyMat *tensor.Tensor) {
	t.Helper()
	col := tensor.New(g.ColRows(), g.ColCols())
	tensor.Im2Col(x, g, col)
	for _, cfg := range Catalog {
		for _, mode := range []Mode{Default, Deterministic} {
			seed := uint64(gi*31 + 5)
			wantFwd := New(cfg, mode, rng.New(seed).Split("hw")).MatMul(w, col, false, false)
			wantBwd := New(cfg, mode, rng.New(seed).Split("hw")).MatMul(dyMat, col, false, true)
			gotFwd := New(cfg, mode, rng.New(seed).Split("hw")).MatMulIm2Col(w, x, g)
			if !tensor.Equal(gotFwd, wantFwd) {
				t.Fatalf("geom %d zeros=%g %s/%s: MatMulIm2Col diverged from materialized GEMM (max diff %g)",
					gi, zeros, cfg.Name, mode, tensor.MaxAbsDiff(gotFwd, wantFwd))
			}
			gotBwd := New(cfg, mode, rng.New(seed).Split("hw")).MatMulIm2ColT(dyMat, x, g)
			if !tensor.Equal(gotBwd, wantBwd) {
				t.Fatalf("geom %d zeros=%g %s/%s: MatMulIm2ColT diverged from materialized GEMM (max diff %g)",
					gi, zeros, cfg.Name, mode, tensor.MaxAbsDiff(gotBwd, wantBwd))
			}
		}
	}
}
