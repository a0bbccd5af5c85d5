package checkpoint

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/sched"
)

// TestCheckpointBytesInvariantUnderWorkerBudget trains one-epoch
// ALGO+IMPL records at a worker budget of 1, where every conv's
// weight-gradient GEMM runs inline, and of 2, where it runs on a pool
// helper beside the backward-data kernel, and requires byte-identical
// records: SmallCNN on V100 and on RTX5000 TC, and ResNet-18 (stride-2
// and 1×1 shortcut convs) on V100. It runs under -short, so CI's race
// run covers the helper path.
func TestCheckpointBytesInvariantUnderWorkerBudget(t *testing.T) {
	ds := data.CIFAR10Like(data.ScaleTest)
	smallCNN := func() *nn.Sequential { return models.SmallCNN(models.DefaultSmallCNN(ds.Classes)) }
	resNet18 := func() *nn.Sequential { return models.ResNet18(ds.Classes) }
	for _, c := range []struct {
		name  string
		model func() *nn.Sequential
		dev   device.Config
	}{
		{"SmallCNN/V100", smallCNN, device.V100},
		{"SmallCNN/RTX5000TC", smallCNN, device.RTX5000TC},
		{"ResNet18/V100", resNet18, device.V100},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := core.TrainConfig{
				Model:    c.model,
				Dataset:  ds,
				Device:   c.dev,
				Epochs:   1,
				Batch:    32,
				Schedule: opt.Constant(0.05),
				Momentum: 0.9,
				Augment:  data.Augment{Shift: 1, Flip: true},
				BaseSeed: 20220622,
			}
			encode := func(workers int) ([]byte, uint64) {
				sched.SetWorkers(workers)
				defer sched.SetWorkers(0)
				before := sched.Handoffs()
				res, err := core.RunReplica(context.Background(), cfg, core.AlgoImpl, 0)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := EncodeResult(&buf, "cell", res); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), sched.Handoffs() - before
			}
			inline, n1 := encode(1)
			helped, n2 := encode(2)
			if n1 != 0 || n2 == 0 {
				t.Fatalf("%d and %d weight-gradient GEMMs ran on a helper at budgets 1 and 2, want 0 and some", n1, n2)
			}
			if !bytes.Equal(inline, helped) {
				t.Fatalf("checkpoint bytes differ between worker budgets 1 and 2: %d vs %d bytes", len(inline), len(helped))
			}
		})
	}
}
