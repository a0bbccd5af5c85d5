package core

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
)

func tinyTrainConfig() TrainConfig {
	ds := data.CIFAR10Like(data.ScaleTest)
	return TrainConfig{
		Model:       func() *nn.Sequential { return models.SmallCNN(models.DefaultSmallCNN(ds.Classes)) },
		Dataset:     ds,
		Device:      device.V100,
		Epochs:      2,
		Batch:       32,
		Schedule:    opt.Constant(0.05),
		Momentum:    0.9,
		WeightDecay: 5e-4,
		Augment:     data.Augment{Shift: 1, Flip: true},
		BaseSeed:    20220622,
	}
}

// TestRunReplicaInvariantUnderPrefetch trains the same replica with batch
// prefetch on and off and requires bit-identical results — weights,
// predictions, per-epoch losses. The background assembler is a pure
// wall-clock knob.
func TestRunReplicaInvariantUnderPrefetch(t *testing.T) {
	cfg := tinyTrainConfig()
	run := func(prefetch bool) *RunResult {
		t.Helper()
		prev := SetBatchPrefetch(prefetch)
		defer SetBatchPrefetch(prev)
		res, err := RunReplica(context.Background(), cfg, AlgoImpl, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	requireIdentical(t, run(true), run(false), "prefetch on vs off")
}

// TestRunReplicaMatchesReferencePath re-trains a replica through the
// reference implementations the zero-alloc path replaced — materialized
// batches, Clone-based layers (no activation workspace), the non-in-place
// loss, the unfused per-pass optimizer arithmetic — and requires the
// trained weights, predictions and losses to be bit-identical to
// RunReplica's streaming in-place fused path. This is the end-to-end pin
// that the performance work changed no result bit anywhere.
func TestRunReplicaMatchesReferencePath(t *testing.T) {
	for _, v := range []Variant{Control, AlgoImpl} {
		t.Run(v.String(), func(t *testing.T) {
			cfg := tinyTrainConfig()
			fast, err := RunReplica(context.Background(), cfg, v, 0)
			if err != nil {
				t.Fatal(err)
			}

			// Reference path: same seed policy, no workspace (layers Clone),
			// materialized epochs, reference loss, per-param gradients left
			// untouched by any arena.
			initS, shuffleS, augS, mode, entropy := SeedsFor(cfg.BaseSeed, v, 0)
			net := cfg.Model()
			net.Init(initS)
			dev := device.New(cfg.Device, mode, entropy)
			loader := data.NewLoader(cfg.Dataset, cfg.Dataset.Train, cfg.Batch, cfg.Augment)
			sgd := opt.NewSGD(cfg.Momentum, cfg.WeightDecay)
			ref := &RunResult{Variant: v}
			for epoch := 0; epoch < cfg.Epochs; epoch++ {
				lr := cfg.Schedule.LR(epoch)
				var epochLoss float64
				// Each batch is cloned out of the loader's buffers, as a
				// materialized epoch would hold it.
				ep := loader.Epoch(shuffleS.SplitIndex(epoch), augS.SplitIndex(epoch))
				var b data.Batch
				batches := 0
				for ep.Next(&b) {
					x, labels := b.X.Clone(), append([]int(nil), b.Labels...)
					net.ZeroGrad()
					logits := net.Forward(dev, x, true)
					loss, dlogits := nn.SoftmaxCrossEntropy(dev, logits, labels)
					net.Backward(dev, dlogits)
					sgd.Step(net.Params(), lr)
					epochLoss += loss
					batches++
				}
				ref.EpochLoss = append(ref.EpochLoss, epochLoss/float64(batches))
			}
			ref.Predictions = Predict(net, dev, cfg.Dataset, cfg.Dataset.Test, cfg.Batch)
			ref.Weights = net.WeightVector()

			requireIdentical(t, fast, ref, "optimized vs reference path")
		})
	}
}

func requireIdentical(t *testing.T, got, want *RunResult, label string) {
	t.Helper()
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("%s: weight counts differ: %d vs %d", label, len(got.Weights), len(want.Weights))
	}
	for i := range got.Weights {
		if got.Weights[i] != want.Weights[i] {
			t.Fatalf("%s: weight %d differs: %v vs %v", label, i, got.Weights[i], want.Weights[i])
		}
	}
	if len(got.Predictions) != len(want.Predictions) {
		t.Fatalf("%s: prediction counts differ", label)
	}
	for i := range got.Predictions {
		if got.Predictions[i] != want.Predictions[i] {
			t.Fatalf("%s: prediction %d differs: %d vs %d", label, i, got.Predictions[i], want.Predictions[i])
		}
	}
	if len(got.EpochLoss) != len(want.EpochLoss) {
		t.Fatalf("%s: epoch-loss counts differ", label)
	}
	for i := range got.EpochLoss {
		if got.EpochLoss[i] != want.EpochLoss[i] {
			t.Fatalf("%s: epoch %d loss differs: %v vs %v", label, i, got.EpochLoss[i], want.EpochLoss[i])
		}
	}
}
