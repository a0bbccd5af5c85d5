package device

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Micro-benchmarks for the simulated kernels: the cost of the
// accumulation-order machinery relative to the plain deterministic path.

func benchMatMul(b *testing.B, cfg Config, mode Mode) {
	a := tensor.New(32, 512)
	c := tensor.New(512, 64)
	rng.New(1).FillNorm(a.Data(), 0, 1)
	rng.New(2).FillNorm(c.Data(), 0, 1)
	dev := New(cfg, mode, rng.New(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.MatMul(a, c, false, false)
	}
}

func BenchmarkMatMul(b *testing.B) {
	for _, cfg := range []Config{CPU, V100, RTX5000TC, TPUv2} {
		for _, mode := range []Mode{Default, Deterministic} {
			b.Run(fmt.Sprintf("%s/%s", cfg.Name, mode), func(b *testing.B) {
				benchMatMul(b, cfg, mode)
			})
		}
	}
}

// BenchmarkMatMulLarge is a GEMM larger than any training kernel:
// 192×512 × 512×512 ≈ 50M element-ops.
func BenchmarkMatMulLarge(b *testing.B) {
	a := tensor.New(192, 512)
	c := tensor.New(512, 512)
	rng.New(1).FillNorm(a.Data(), 0, 1)
	rng.New(2).FillNorm(c.Data(), 0, 1)
	dev := New(V100, Default, rng.New(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.MatMul(a, c, false, false)
	}
}

// BenchmarkMatMulIm2Col compares the fused conv-forward GEMM against the
// materialize-then-multiply path it replaced.
func BenchmarkMatMulIm2Col(b *testing.B) {
	g := tensor.ConvGeom{Batch: 32, InC: 16, InH: 8, InW: 8, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	x := tensor.New(g.Batch, g.InC, g.InH, g.InW)
	w := tensor.New(g.OutC, g.ColRows())
	rng.New(8).FillNorm(x.Data(), 0, 1)
	rng.New(9).FillNorm(w.Data(), 0, 1)
	b.Run("fused", func(b *testing.B) {
		dev := New(V100, Default, rng.New(10))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dev.MatMulIm2Col(w, x, g)
		}
	})
	b.Run("materialized", func(b *testing.B) {
		dev := New(V100, Default, rng.New(10))
		col := tensor.New(g.ColRows(), g.ColCols())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.Im2Col(x, g, col)
			dev.MatMul(w, col, false, false)
		}
	})
}

// resNet18ConvGeoms lists the distinct conv geometries ResNet-18 runs at
// batch 32 on 8×8 inputs: the stem, each stage's 3×3 convs, the stride-2
// entry convs and the 1×1 stride-2 shortcuts.
func resNet18ConvGeoms() []tensor.ConvGeom {
	return []tensor.ConvGeom{
		{Batch: 32, InC: 3, InH: 8, InW: 8, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Batch: 32, InC: 8, InH: 8, InW: 8, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Batch: 32, InC: 8, InH: 8, InW: 8, OutC: 16, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{Batch: 32, InC: 8, InH: 8, InW: 8, OutC: 16, KH: 1, KW: 1, Stride: 2, Pad: 0},
		{Batch: 32, InC: 16, InH: 4, InW: 4, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Batch: 32, InC: 16, InH: 4, InW: 4, OutC: 32, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{Batch: 32, InC: 16, InH: 4, InW: 4, OutC: 32, KH: 1, KW: 1, Stride: 2, Pad: 0},
		{Batch: 32, InC: 32, InH: 2, InW: 2, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1},
	}
}

// BenchmarkConvKernelsResNet18 times the three conv kernels — forward
// GEMM, backward-weights GEMM and col2im — over every ResNet-18 conv
// geometry (one op = one call per geometry), in both modes, with a
// workspace attached as in training: warm calls allocate nothing.
func BenchmarkConvKernelsResNet18(b *testing.B) {
	type convCase struct {
		g           tensor.ConvGeom
		x, w, dy, c *tensor.Tensor
		dst         *tensor.Tensor
	}
	var cases []convCase
	for i, g := range resNet18ConvGeoms() {
		s := rng.New(uint64(20 + i))
		cc := convCase{
			g:   g,
			x:   tensor.New(g.Batch, g.InC, g.InH, g.InW),
			w:   tensor.New(g.OutC, g.ColRows()),
			dy:  tensor.New(g.OutC, g.ColCols()),
			c:   tensor.New(g.ColRows(), g.ColCols()),
			dst: tensor.New(g.Batch, g.InC, g.InH, g.InW),
		}
		for _, t := range []*tensor.Tensor{cc.x, cc.w, cc.dy, cc.c} {
			s.FillNorm(t.Data(), 0, 1)
		}
		cases = append(cases, cc)
	}
	kernels := []struct {
		name string
		run  func(dev *Device, cc *convCase)
	}{
		{"fwd", func(dev *Device, cc *convCase) { dev.MatMulIm2Col(cc.w, cc.x, cc.g) }},
		{"bwd-weights", func(dev *Device, cc *convCase) { dev.MatMulIm2ColT(cc.dy, cc.x, cc.g) }},
		{"col2im", func(dev *Device, cc *convCase) { dev.Col2Im(cc.c, cc.g, cc.dst) }},
	}
	for _, k := range kernels {
		for _, mode := range []Mode{Default, Deterministic} {
			b.Run(k.name+"/"+mode.String(), func(b *testing.B) {
				dev := New(V100, mode, rng.New(11))
				ws := tensor.NewWorkspace()
				dev.SetWorkspace(ws)
				step := func() {
					for i := range cases {
						k.run(dev, &cases[i])
					}
					ws.Reset()
				}
				step() // warm the workspace, scratch pool and im2col plan
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}

func BenchmarkReduceSum(b *testing.B) {
	xs := make([]float32, 1<<16)
	rng.New(4).FillNorm(xs, 0, 1)
	for _, cfg := range []Config{CPU, V100} {
		b.Run(cfg.Name, func(b *testing.B) {
			dev := New(cfg, Default, rng.New(5))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dev.ReduceSum(xs)
			}
		})
	}
}

func BenchmarkCol2Im(b *testing.B) {
	g := tensor.ConvGeom{Batch: 8, InC: 8, InH: 8, InW: 8, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	col := tensor.New(g.ColRows(), g.ColCols())
	rng.New(6).FillNorm(col.Data(), 0, 1)
	for _, mode := range []Mode{Default, Deterministic} {
		b.Run(mode.String(), func(b *testing.B) {
			dev := New(V100, mode, rng.New(7))
			dst := tensor.New(8, 8, 8, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.Zero()
				dev.Col2Im(col, g, dst)
			}
		})
	}
}
