package device

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// col2imGeoms covers every conv geometry ResNet-18 and SmallCNN run at
// batch 32 on 8×8 inputs, plus the shapes that stress the fused kernel's
// image-aligned column tiles.
func col2imGeoms() []tensor.ConvGeom {
	return append(resNet18ConvGeoms(),
		// SmallCNN conv2 and conv3 (conv1 is ResNet-18's stem shape).
		tensor.ConvGeom{Batch: 32, InC: 8, InH: 4, InW: 4, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		tensor.ConvGeom{Batch: 32, InC: 16, InH: 2, InW: 2, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		// Pad 0 with stride 2, and a 1×1 kernel at stride 1.
		tensor.ConvGeom{Batch: 3, InC: 2, InH: 9, InW: 7, OutC: 5, KH: 3, KW: 3, Stride: 2, Pad: 0},
		tensor.ConvGeom{Batch: 5, InC: 4, InH: 4, InW: 4, OutC: 3, KH: 1, KW: 1, Stride: 1, Pad: 0},
		// One image has 24×24 = 576 > panelNC output columns: a tile is
		// one image, which the GEMM sweeps in two panels.
		tensor.ConvGeom{Batch: 3, InC: 2, InH: 24, InW: 24, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
		// Eight 8×8 images fill a tile; of 11, the last tile holds 3.
		tensor.ConvGeom{Batch: 11, InC: 3, InH: 8, InW: 8, OutC: 6, KH: 3, KW: 3, Stride: 1, Pad: 1},
		// OutC 130 > panelKC: every tile runs two K blocks before it is
		// scattered.
		tensor.ConvGeom{Batch: 4, InC: 2, InH: 6, InW: 6, OutC: 130, KH: 3, KW: 3, Stride: 1, Pad: 1},
	)
}

// plantSpecials writes NaN, -0, +Inf and -Inf at a few drawn positions.
func plantSpecials(d []float32, s *rng.Stream) {
	for _, v := range []float32{
		float32(math.NaN()), float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
	} {
		d[s.Intn(len(d))] = v
	}
}

// TestMatMulCol2ImMatchesReference pins the fused backward-data kernel
// against the two kernels it replaced — MatMul(W, dy, true, false) into a
// column matrix, then Col2Im into a zeroed image — bit for bit, on a
// destination pre-filled with NaN (the fused kernel overwrites it), with
// NaN, -0 and ±Inf in W and dy, at zero densities that send strips to
// both the register tile and the axpy sweep. It also requires one launch
// and the same entropy draws: the streams stand at the same place after.
func TestMatMulCol2ImMatchesReference(t *testing.T) {
	parts := []struct {
		cfg   Config
		mode  Mode
		seeds int
	}{
		{V100, Deterministic, 1},
		{V100, Default, 3},
		{RTX5000TC, Default, 1},
	}
	for gi, g := range col2imGeoms() {
		for _, zeros := range []float64{0, 1.0 / 2} {
			s := rng.New(uint64(300 + gi))
			w := sparseMatrix(s.Split("w"), g.OutC, g.ColRows(), zeros)
			dy := sparseMatrix(s.Split("dy"), g.OutC, g.ColCols(), zeros)
			plantSpecials(w.Data(), s.Split("ws"))
			plantSpecials(dy.Data(), s.Split("dys"))
			for _, p := range parts {
				for seed := 0; seed < p.seeds; seed++ {
					refS, gotS := rng.New(uint64(seed)), rng.New(uint64(seed))
					ref := New(p.cfg, p.mode, refS)
					want := tensor.New(g.Batch, g.InC, g.InH, g.InW)
					ref.Col2Im(ref.MatMul(w, dy, true, false), g, want)

					dev := New(p.cfg, p.mode, gotS)
					got := tensor.New(g.Batch, g.InC, g.InH, g.InW)
					got.Fill(float32(math.NaN()))
					dev.MatMulCol2Im(w, dy, g, got)
					if !tensor.Equal(got, want) {
						t.Fatalf("geom %d zeros=%g %s/%s seed %d: fused backward-data kernel differs from MatMul+Col2Im",
							gi, zeros, p.cfg.Name, p.mode, seed)
					}
					if n := dev.KernelLaunches(); n != 1 {
						t.Fatalf("fused backward-data kernel counted %d launches, want 1", n)
					}
					if refS.Uint64() != gotS.Uint64() {
						t.Fatalf("geom %d %s/%s seed %d: fused kernel drew differently from MatMul+Col2Im",
							gi, p.cfg.Name, p.mode, seed)
					}
				}
			}
		}
	}
}

// TestPreparedIm2ColTMatchesInline: a backward-weights GEMM prepared on
// one goroutine and run on another gives MatMulIm2ColT's bits, draws the
// same entropy, and leaves the device free for other kernels meanwhile.
func TestPreparedIm2ColTMatchesInline(t *testing.T) {
	for gi, g := range col2imGeoms() {
		s := rng.New(uint64(400 + gi))
		x := tensor.New(g.Batch, g.InC, g.InH, g.InW)
		s.FillNorm(x.Data(), 0, 1)
		plantSpecials(x.Data(), s)
		dy := sparseMatrix(s.Split("dy"), g.OutC, g.ColCols(), 1.0/2)
		w := testMatrix(s.Split("w"), g.OutC, g.ColRows())
		for _, cfg := range []Config{V100, RTX5000TC} {
			for _, mode := range []Mode{Default, Deterministic} {
				ref := New(cfg, mode, rng.New(7))
				want := ref.MatMulIm2ColT(dy, x, g).Clone()
				wantDx := tensor.New(g.Batch, g.InC, g.InH, g.InW)
				ref.MatMulCol2Im(w, dy, g, wantDx)

				dev := New(cfg, mode, rng.New(7))
				job := dev.PrepareMatMulIm2ColT(dy, x, g)
				done := make(chan struct{})
				go func() {
					job.Run()
					close(done)
				}()
				gotDx := tensor.New(g.Batch, g.InC, g.InH, g.InW)
				dev.MatMulCol2Im(w, dy, g, gotDx)
				<-done
				if !tensor.Equal(job.Out(), want) {
					t.Fatalf("geom %d %s/%s: prepared GEMM run on another goroutine differs from MatMulIm2ColT", gi, cfg.Name, mode)
				}
				if !tensor.Equal(gotDx, wantDx) {
					t.Fatalf("geom %d %s/%s: backward-data kernel beside the prepared GEMM differs", gi, cfg.Name, mode)
				}
			}
		}
	}
}
