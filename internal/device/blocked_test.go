package device

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// withIntraParallel runs fn with intra-kernel sharding forced on (threshold
// 1 element-op) and a multi-worker pool, restoring both afterwards. Tests in
// this package run sequentially, so mutating the globals is safe.
func withIntraParallel(t *testing.T, workers int, fn func()) {
	t.Helper()
	oldWorkers := sched.Workers()
	SetIntraOpThreshold(1)
	sched.SetWorkers(workers)
	defer func() {
		SetIntraOpThreshold(0)
		sched.SetWorkers(oldWorkers)
	}()
	fn()
}

// TestMatMulRandomizedVsReference drives the blocked packed-panel kernel
// through ~200 random (m, k, n, transA, transB, part, mode, seed) tuples,
// each at every zero density, and requires byte-identical output to the
// retained naive reference kernel — first serially, then with intra-kernel
// row sharding forced on across a 4-worker pool (the CI -race run makes
// the sharded pass double as a data race check on the
// disjoint-output-slice argument).
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
				t.Fatalf("tuple %d (%s/%s m=%d k=%d n=%d zeros=%g tA=%v tB=%v): serial blocked kernel diverged (max diff %g)",
					i, cfg.Name, mode, m, k, n, zeros, transA, transB, tensor.MaxAbsDiff(got, want))
			}

			devPar := New(cfg, mode, rng.New(seed).Split("hw"))
			withIntraParallel(t, 4, func() {
				if got := devPar.MatMul(a, b, transA, transB); !tensor.Equal(got, want) {
					t.Fatalf("tuple %d (%s/%s m=%d k=%d n=%d zeros=%g tA=%v tB=%v): sharded blocked kernel diverged (max diff %g)",
						i, cfg.Name, mode, m, k, n, zeros, transA, transB, tensor.MaxAbsDiff(got, want))
				}
			})
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
// density, serially and under forced intra-kernel sharding.
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

			check := func(label string) {
				t.Helper()
				gotFwd := New(cfg, mode, rng.New(seed).Split("hw")).MatMulIm2Col(w, x, g)
				if !tensor.Equal(gotFwd, wantFwd) {
					t.Fatalf("geom %d zeros=%g %s/%s %s: MatMulIm2Col diverged from materialized GEMM (max diff %g)",
						gi, zeros, cfg.Name, mode, label, tensor.MaxAbsDiff(gotFwd, wantFwd))
				}
				gotBwd := New(cfg, mode, rng.New(seed).Split("hw")).MatMulIm2ColT(dyMat, x, g)
				if !tensor.Equal(gotBwd, wantBwd) {
					t.Fatalf("geom %d zeros=%g %s/%s %s: MatMulIm2ColT diverged from materialized GEMM (max diff %g)",
						gi, zeros, cfg.Name, mode, label, tensor.MaxAbsDiff(gotBwd, wantBwd))
				}
			}
			check("serial")
			withIntraParallel(t, 4, func() { check("sharded") })
		}
	}
}

// TestSumRowsShardedBitIdentical pins the row-sharded SumRows (with its
// pre-drawn per-row chunk orders) against the serial kernel on the same
// entropy seed.
func TestSumRowsShardedBitIdentical(t *testing.T) {
	for _, cfg := range []Config{CPU, V100, TPUv2} {
		for _, mode := range []Mode{Default, Deterministic} {
			m := testMatrix(rng.New(9).Split("m"), 64, 700)
			want := New(cfg, mode, rng.New(9).Split("hw")).SumRows(m)
			devPar := New(cfg, mode, rng.New(9).Split("hw"))
			withIntraParallel(t, 4, func() {
				got := devPar.SumRows(m)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s: sharded SumRows[%d] = %v, want %v", cfg.Name, mode, i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestSumColsShardedBitIdentical does the same for the column-sharded
// SumCols.
func TestSumColsShardedBitIdentical(t *testing.T) {
	for _, cfg := range []Config{CPU, V100, TPUv2} {
		for _, mode := range []Mode{Default, Deterministic} {
			m := testMatrix(rng.New(11).Split("m"), 300, 256)
			want := New(cfg, mode, rng.New(11).Split("hw")).SumCols(m)
			devPar := New(cfg, mode, rng.New(11).Split("hw"))
			withIntraParallel(t, 4, func() {
				got := devPar.SumCols(m)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s: sharded SumCols[%d] = %v, want %v", cfg.Name, mode, i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestKernelLaunchesInvariantUnderSharding: a kernel launch counts once no
// matter how many shards execute it, so telemetry and tests that rely on
// KernelLaunches see identical counts at any worker budget.
func TestKernelLaunchesInvariantUnderSharding(t *testing.T) {
	run := func(dev *Device) int64 {
		s := rng.New(21)
		a := testMatrix(s.Split("a"), 32, 64)
		b := testMatrix(s.Split("b"), 64, 48)
		out := dev.MatMul(a, b, false, false)
		dev.SumRows(out)
		dev.SumCols(out)
		dev.ReduceSum(out.Data())
		return dev.KernelLaunches()
	}
	serial := run(New(V100, Default, rng.New(5).Split("hw")))
	var sharded int64
	withIntraParallel(t, 4, func() {
		sharded = run(New(V100, Default, rng.New(5).Split("hw")))
	})
	if serial != sharded {
		t.Fatalf("KernelLaunches changed under sharding: serial=%d sharded=%d", serial, sharded)
	}
	if serial != 4 {
		t.Fatalf("expected 4 launches, got %d", serial)
	}
}

// TestIntraShardsPolicy pins the shard-count policy: below threshold or
// with a single worker the kernel stays serial; shards never exceed the
// worker count or give a shard fewer than minRows rows.
func TestIntraShardsPolicy(t *testing.T) {
	oldWorkers := sched.Workers()
	defer sched.SetWorkers(oldWorkers)

	sched.SetWorkers(8)
	SetIntraOpThreshold(1000)
	defer SetIntraOpThreshold(0)

	if got := intraShards(100, 999, 4); got != 1 {
		t.Fatalf("below threshold: shards=%d, want 1", got)
	}
	if got := intraShards(100, 1000, 4); got != 8 {
		t.Fatalf("at threshold, ample rows: shards=%d, want 8", got)
	}
	if got := intraShards(9, 1000, 4); got != 2 {
		t.Fatalf("9 rows, minRows 4: shards=%d, want 2", got)
	}
	if got := intraShards(7, 1000, 4); got != 1 {
		t.Fatalf("7 rows, minRows 4: shards=%d, want 1 (too few rows)", got)
	}
	SetIntraOpThreshold(-1)
	if got := intraShards(100, 1<<40, 4); got != 1 {
		t.Fatalf("disabled: shards=%d, want 1", got)
	}
	SetIntraOpThreshold(0)
	sched.SetWorkers(1)
	if got := intraShards(100, 1<<40, 4); got != 1 {
		t.Fatalf("single worker: shards=%d, want 1", got)
	}
}
