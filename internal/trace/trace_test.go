package trace

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
)

func pairConfig(epochs int) core.TrainConfig {
	ds := data.CIFAR10Like(data.ScaleTest)
	return core.TrainConfig{
		Model:    func() *nn.Sequential { return models.SmallCNN(models.DefaultSmallCNN(ds.Classes)) },
		Dataset:  ds,
		Device:   device.V100,
		Epochs:   epochs,
		Batch:    32,
		Schedule: opt.StepDecay{Base: 0.06, Factor: 10, Every: epochs * 3 / 4},
		Momentum: 0.9,
		Augment:  data.Augment{Shift: 1, Flip: true},
		BaseSeed: 77,
	}
}

func TestControlPairNeverDiverges(t *testing.T) {
	tr, err := Pair(pairConfig(4), core.Control)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 4 {
		t.Fatalf("trajectory has %d points", len(tr.Points))
	}
	for _, p := range tr.Points {
		if p.MaxAbsDiff != 0 || p.L2 != 0 {
			t.Fatalf("CONTROL pair diverged at epoch %d: %+v", p.Epoch, p)
		}
	}
	if tr.AmplificationOnset(0) != -1 {
		t.Fatal("CONTROL pair reported an amplification onset")
	}
}

func TestImplPairStartsAtRoundingScale(t *testing.T) {
	// After one epoch under IMPL noise the divergence must exist but still
	// be at rounding scale — the amplification has not happened yet.
	tr, err := Pair(pairConfig(1), core.Impl)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.Final()
	if p.MaxAbsDiff == 0 {
		t.Fatal("IMPL pair identical after an epoch; entropy not flowing")
	}
	if p.MaxAbsDiff > 1e-3 {
		t.Fatalf("epoch-0 divergence %v too large for rounding noise", p.MaxAbsDiff)
	}
}

func TestImplPairAmplifies(t *testing.T) {
	// The paper's mechanism end to end: rounding-scale noise grows by
	// orders of magnitude over training.
	tr, err := Pair(pairConfig(30), core.Impl)
	if err != nil {
		t.Fatal(err)
	}
	first := tr.Points[0].MaxAbsDiff
	final := tr.Final().MaxAbsDiff
	if final < 1e-3 {
		t.Fatalf("divergence did not amplify: first %v, final %v", first, final)
	}
	if final < 100*first {
		t.Fatalf("expected orders-of-magnitude growth: first %v, final %v", first, final)
	}
	onset := tr.AmplificationOnset(1e-4)
	if onset <= 0 {
		t.Fatalf("onset epoch %d; expected amplification after a delay", onset)
	}
}

func TestAlgoPairDivergesImmediately(t *testing.T) {
	// Different inits: the pair starts far apart, no amplification delay.
	tr, err := Pair(pairConfig(2), core.Algo)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Points[0].L2 < 0.1 {
		t.Fatalf("ALGO pair too close after first epoch: L2 %v", tr.Points[0].L2)
	}
}

func TestPairMatchesRunReplicaWithWeightDecay(t *testing.T) {
	// Pair must train under the same recipe as core.RunReplica, weight
	// decay included: its final divergence equals the one computed from
	// replicas 0 and 1 trained independently, bit for bit.
	cfg := pairConfig(2)
	cfg.WeightDecay = 1e-3
	tr, err := Pair(cfg, core.Impl)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := core.RunReplica(context.Background(), cfg, core.Impl, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.RunReplica(context.Background(), cfg, core.Impl, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Final()
	if want := maxAbsDiff(r0.Weights, r1.Weights); got.MaxAbsDiff != want {
		t.Fatalf("Pair MaxAbsDiff %v, RunReplica replicas %v", got.MaxAbsDiff, want)
	}
	if want := metrics.L2Normalized(r0.Weights, r1.Weights); got.L2 != want {
		t.Fatalf("Pair L2 %v, RunReplica replicas %v", got.L2, want)
	}
}

func TestPairValidatesConfig(t *testing.T) {
	bad := pairConfig(4)
	bad.Model = nil
	if _, err := Pair(bad, core.Impl); err == nil {
		t.Fatal("nil model accepted")
	}
	bad2 := pairConfig(0)
	if _, err := Pair(bad2, core.Impl); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

func TestTrajectoryHelpers(t *testing.T) {
	tr := &Trajectory{Points: []Point{
		{Epoch: 0, MaxAbsDiff: 1e-7},
		{Epoch: 1, MaxAbsDiff: 1e-5},
		{Epoch: 2, MaxAbsDiff: 1e-2},
		{Epoch: 3, MaxAbsDiff: 5e-2},
	}}
	if got := tr.AmplificationOnset(1e-4); got != 2 {
		t.Fatalf("onset = %d, want 2", got)
	}
	empty := &Trajectory{}
	if empty.Final() != (Point{}) {
		t.Fatal("empty Final not zero")
	}
}
