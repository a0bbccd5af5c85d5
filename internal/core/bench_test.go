package core

import (
	"context"
	"os"
	"strconv"
	"testing"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/sched"
)

// TestMain lets the BENCH harness pin the worker pool from the environment
// (NNRAND_WORKERS=n) for multi-worker trajectory runs.
func TestMain(m *testing.M) {
	if s := os.Getenv("NNRAND_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			sched.SetWorkers(n)
		}
	}
	os.Exit(m.Run())
}

// BenchmarkTrainingStep measures one forward+backward+update step of the
// small CNN on each class of simulated part — the wall-clock price of the
// accumulation-order machinery in this pure-Go stack (the modeled cuDNN
// prices are in internal/profile).
func BenchmarkTrainingStep(b *testing.B) {
	ds := data.CIFAR10Like(data.ScaleTest)
	for _, cfg := range []struct {
		dev  device.Config
		mode device.Mode
	}{
		{device.V100, device.Default},
		{device.V100, device.Deterministic},
		{device.TPUv2, device.Default},
	} {
		b.Run(cfg.dev.Name+"/"+cfg.mode.String(), func(b *testing.B) {
			tc := TrainConfig{
				Model:    func() *nn.Sequential { return models.SmallCNN(models.DefaultSmallCNN(ds.Classes)) },
				Dataset:  ds,
				Device:   cfg.dev,
				Epochs:   1,
				Batch:    32,
				Schedule: opt.Constant(0.01),
				Momentum: 0.9,
				BaseSeed: 1,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunReplica(context.Background(), tc, AlgoImpl, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunVariantParallel measures a full population train (4 replicas
// of the small CNN) through the sched worker pool, against the sequential
// baseline below. On >= 4 cores the parallel path should approach a 4×
// speedup; outputs are bit-identical either way (TestRunVariantParallelBitIdentical).
func BenchmarkRunVariantParallel(b *testing.B) {
	ds := data.CIFAR10Like(data.ScaleTest)
	tc := variantBenchConfig(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunVariant(context.Background(), tc, AlgoImpl, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunVariantSequential is the same population trained one replica
// at a time, the pre-parallel-engine behaviour.
func BenchmarkRunVariantSequential(b *testing.B) {
	ds := data.CIFAR10Like(data.ScaleTest)
	tc := variantBenchConfig(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 4; r++ {
			if _, err := RunReplica(context.Background(), tc, AlgoImpl, r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func variantBenchConfig(ds *data.Dataset) TrainConfig {
	return TrainConfig{
		Model:    func() *nn.Sequential { return models.SmallCNN(models.DefaultSmallCNN(ds.Classes)) },
		Dataset:  ds,
		Device:   device.V100,
		Epochs:   1,
		Batch:    32,
		Schedule: opt.Constant(0.01),
		Momentum: 0.9,
		BaseSeed: 1,
	}
}

// BenchmarkReplicaResNet18 measures a one-epoch ResNet-18 replica, the unit
// of work behind every population in the figure harnesses.
func BenchmarkReplicaResNet18(b *testing.B) {
	ds := data.CIFAR10Like(data.ScaleTest)
	tc := TrainConfig{
		Model:    func() *nn.Sequential { return models.ResNet18(ds.Classes) },
		Dataset:  ds,
		Device:   device.V100,
		Epochs:   1,
		Batch:    32,
		Schedule: opt.Constant(0.01),
		Momentum: 0.9,
		BaseSeed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunReplica(context.Background(), tc, AlgoImpl, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainStep measures one warm training step — streamed batch
// assembly, forward, in-place loss, backward, fused SGD update, workspace
// reset — after a full warm-up epoch. With -benchmem this is the headline
// zero-alloc number (BENCH_trainstep.json); the strict gate is
// TestTrainStepZeroAllocSteadyState.
func BenchmarkTrainStep(b *testing.B) {
	for _, bc := range []struct {
		name string
		mode device.Mode
	}{
		{"deterministic", device.Deterministic},
		{"default", device.Default},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := newTrainStepHarness(bc.mode)
			for !h.step() {
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.step()
			}
		})
	}
}
