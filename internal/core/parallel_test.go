package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/sched"
)

func parallelTestConfig(ds *data.Dataset) TrainConfig {
	return TrainConfig{
		Model:    func() *nn.Sequential { return models.SmallCNN(models.DefaultSmallCNN(ds.Classes)) },
		Dataset:  ds,
		Device:   device.V100,
		Epochs:   2,
		Batch:    32,
		Schedule: opt.Constant(0.05),
		Momentum: 0.9,
		Augment:  data.Augment{Shift: 1, Flip: true},
		BaseSeed: 20220622,
	}
}

// TestRunVariantParallelBitIdentical is the load-bearing determinism
// guarantee behind the worker pool: for every variant, training replicas
// concurrently must produce byte-identical weights, predictions and loss
// curves to a sequential loop, because each replica's randomness is fully
// derived from (BaseSeed, variant, replica) — never from execution order.
func TestRunVariantParallelBitIdentical(t *testing.T) {
	ds := data.CIFAR10Like(data.ScaleTest)
	cfg := parallelTestConfig(ds)
	const replicas = 4

	for _, v := range []Variant{AlgoImpl, Algo, Impl, Control, DataOrderOnly} {
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			seq := make([]*RunResult, replicas)
			for r := 0; r < replicas; r++ {
				res, err := RunReplica(context.Background(), cfg, v, r)
				if err != nil {
					t.Fatal(err)
				}
				seq[r] = res
			}
			par, err := RunVariant(context.Background(), cfg, v, replicas)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < replicas; r++ {
				assertRunResultIdentical(t, seq[r], par[r])
			}
		})
	}
}

func assertRunResultIdentical(t *testing.T, want, got *RunResult) {
	t.Helper()
	if got.Variant != want.Variant || got.Replica != want.Replica {
		t.Fatalf("identity mismatch: got %s/%d, want %s/%d", got.Variant, got.Replica, want.Variant, want.Replica)
	}
	if got.TestAccuracy != want.TestAccuracy {
		t.Errorf("replica %d: accuracy %v != %v", want.Replica, got.TestAccuracy, want.TestAccuracy)
	}
	if len(got.Predictions) != len(want.Predictions) {
		t.Fatalf("replica %d: %d predictions, want %d", want.Replica, len(got.Predictions), len(want.Predictions))
	}
	for i := range want.Predictions {
		if got.Predictions[i] != want.Predictions[i] {
			t.Fatalf("replica %d: prediction %d differs: %d vs %d", want.Replica, i, got.Predictions[i], want.Predictions[i])
		}
	}
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("replica %d: %d weights, want %d", want.Replica, len(got.Weights), len(want.Weights))
	}
	for i := range want.Weights {
		if math.Float32bits(got.Weights[i]) != math.Float32bits(want.Weights[i]) {
			t.Fatalf("replica %d: weight %d not bit-identical: %x vs %x",
				want.Replica, i, math.Float32bits(got.Weights[i]), math.Float32bits(want.Weights[i]))
		}
	}
	if len(got.EpochLoss) != len(want.EpochLoss) {
		t.Fatalf("replica %d: %d epoch losses, want %d", want.Replica, len(got.EpochLoss), len(want.EpochLoss))
	}
	for i := range want.EpochLoss {
		if math.Float64bits(got.EpochLoss[i]) != math.Float64bits(want.EpochLoss[i]) {
			t.Fatalf("replica %d: epoch %d loss not bit-identical", want.Replica, i)
		}
	}
}

// TestRunVariantParallelSingleWorker pins the degenerate pool: with one
// worker the pool degrades to the caller running everything inline.
func TestRunVariantParallelSingleWorker(t *testing.T) {
	old := sched.Workers()
	sched.SetWorkers(1)
	defer sched.SetWorkers(old)

	ds := data.CIFAR10Like(data.ScaleTest)
	cfg := parallelTestConfig(ds)
	cfg.Epochs = 1
	res, err := RunVariant(context.Background(), cfg, Control, 2)
	if err != nil {
		t.Fatal(err)
	}
	// CONTROL fixes every noise source: the two replicas must agree exactly.
	for i := range res[0].Weights {
		if math.Float32bits(res[0].Weights[i]) != math.Float32bits(res[1].Weights[i]) {
			t.Fatalf("CONTROL replicas diverged at weight %d", i)
		}
	}
}

// TestWeightDecayPlumbed verifies TrainConfig.WeightDecay reaches the
// optimizer: a decayed run must end with a strictly smaller weight norm
// than an undecayed run, and zero decay must reproduce the old behaviour.
func TestWeightDecayPlumbed(t *testing.T) {
	ds := data.CIFAR10Like(data.ScaleTest)
	base := parallelTestConfig(ds)
	base.Epochs = 1

	plain, err := RunReplica(context.Background(), base, Control, 0)
	if err != nil {
		t.Fatal(err)
	}
	decayed := base
	decayed.WeightDecay = 0.05
	wd, err := RunReplica(context.Background(), decayed, Control, 0)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(w []float32) float64 {
		var s float64
		for _, v := range w {
			s += float64(v) * float64(v)
		}
		return s
	}
	if nw, np := norm(wd.Weights), norm(plain.Weights); nw >= np {
		t.Errorf("weight decay had no effect: decayed norm %v >= plain %v", nw, np)
	}
}
