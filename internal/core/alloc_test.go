package core

import (
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
)

// trainStepHarness drives a Replica's own per-batch step one batch at a
// time, so the zero-alloc gate and BenchmarkTrainStep measure the step
// RunReplica runs. Deterministic mode trains ALGO, Default mode ALGO+IMPL.
type trainStepHarness struct {
	r     *Replica
	epoch int
	ep    *data.Epoch
	b     data.Batch
}

func newTrainStepHarness(mode device.Mode) *trainStepHarness {
	ds := data.CIFAR10Like(data.ScaleTest)
	v := Algo
	if mode == device.Default {
		v = AlgoImpl
	}
	r, err := NewReplica(TrainConfig{
		Model:       func() *nn.Sequential { return models.SmallCNN(models.DefaultSmallCNN(ds.Classes)) },
		Dataset:     ds,
		Device:      device.V100,
		Epochs:      1,
		Batch:       32,
		Schedule:    opt.Constant(0.01),
		Momentum:    0.9,
		WeightDecay: 5e-4,
		Augment:     data.Augment{Shift: 1, Flip: true},
		BaseSeed:    1,
	}, v, 0)
	if err != nil {
		panic(err)
	}
	r.loader.SetPrefetch(false)
	return &trainStepHarness{r: r, ep: r.batches(0)}
}

// step runs one training step, rolling into a fresh epoch when the current
// one is exhausted. Reports whether an epoch boundary was crossed.
func (h *trainStepHarness) step() bool {
	rolled := !h.ep.Next(&h.b)
	if rolled {
		h.epoch++
		h.ep = h.r.batches(h.epoch)
		if !h.ep.Next(&h.b) {
			panic("core: empty epoch in trainStepHarness")
		}
	}
	h.r.step(&h.b, 0.01)
	return rolled
}

// TestTrainStepZeroAllocSteadyState is the alloc-regression gate: after one
// warm epoch, a mid-epoch training step of the tiny config must perform
// ZERO heap allocations — batch assembly, forward, loss, backward and the
// fused SGD update all run out of reused buffers, the workspace and the
// scratch pool (DESIGN.md §15). Runs in both device modes so the
// Default-mode entropy draws are covered too. Prefetch is off so the
// measurement has no helper goroutine; the byte-identity of prefetch
// on/off is pinned separately (data and checkpoint tests).
func TestTrainStepZeroAllocSteadyState(t *testing.T) {
	for _, mode := range []device.Mode{device.Deterministic, device.Default} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newTrainStepHarness(mode)
			// Warm epoch 0 end to end so every pool, workspace shape and
			// layer buffer exists (including the partial final batch).
			for !h.step() {
			}
			// Now in epoch 1. AllocsPerRun's warm-up call plus 5 measured
			// runs stay inside the epoch's run of full batches.
			avg := testing.AllocsPerRun(5, func() {
				if h.step() {
					t.Fatal("crossed an epoch boundary mid-measurement; enlarge the dataset or lower runs")
				}
			})
			if avg != 0 {
				t.Errorf("warm training step allocates %.1f times per step, want 0", avg)
			}
		})
	}
}

// allocsPerRollover is the heap objects one epoch rollover allocates: the
// two SplitIndex streams Replica.batches derives and the "shuffle" and
// "augment" sub-streams Loader.Epoch splits from them.
const allocsPerRollover = 4

// TestTrainStepAllocsAcrossEpochRollovers extends the zero-alloc gate past
// epoch boundaries, which its mid-epoch window never crosses: a warm
// replica trains through three rollovers, and the heap objects it
// allocates must be exactly allocsPerRollover per rollover. Any new
// per-step allocation (about eight steps per epoch) or per-epoch
// allocation fails it; so does removing one of the four without lowering
// the pin.
func TestTrainStepAllocsAcrossEpochRollovers(t *testing.T) {
	const rollovers = 3
	for _, mode := range []device.Mode{device.Deterministic, device.Default} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newTrainStepHarness(mode)
			// Warm epoch 0 end to end, as the zero-alloc gate does.
			for !h.step() {
			}
			// One goroutine, as testing.AllocsPerRun measures.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for n := 0; n < rollovers; {
				if h.step() {
					n++
				}
			}
			runtime.ReadMemStats(&after)
			if got, want := after.Mallocs-before.Mallocs, uint64(rollovers*allocsPerRollover); got != want {
				t.Errorf("%d epoch rollovers allocated %d heap objects, want %d (%d per rollover)",
					rollovers, got, want, allocsPerRollover)
			}
		})
	}
}
