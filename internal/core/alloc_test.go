package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/sched"
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

// allocCases are the alloc gates' subtests: each device mode with every
// conv's weight-gradient GEMM inline (a worker budget of 1) and on the
// sched pool helper (a budget of 2, which leaves the helper a token).
var allocCases = []struct {
	name    string
	mode    device.Mode
	workers int
}{
	{"deterministic", device.Deterministic, 1},
	{"default", device.Default, 1},
	{"deterministic-helper", device.Deterministic, 2},
	{"default-helper", device.Default, 2},
}

// withWorkers sets the sched worker budget for one subtest and returns a
// check that the measured steps ran the weight-gradient GEMMs where the
// budget says: on the helper when it holds a token, inline otherwise.
func withWorkers(t *testing.T, workers int) (check func()) {
	t.Helper()
	sched.SetWorkers(workers)
	t.Cleanup(func() { sched.SetWorkers(0) })
	before := sched.Handoffs()
	return func() {
		t.Helper()
		n := sched.Handoffs() - before
		if workers > 1 && n == 0 {
			t.Error("budget of 2: no weight-gradient GEMM ran on the helper")
		}
		if workers == 1 && n != 0 {
			t.Errorf("budget of 1: %d weight-gradient GEMMs ran on a helper", n)
		}
	}
}

// TestTrainStepZeroAllocSteadyState is the alloc-regression gate: after one
// warm epoch, a mid-epoch training step of the tiny config must perform
// ZERO heap allocations — batch assembly, forward, loss, backward and the
// fused SGD update all run out of reused buffers, the workspace and the
// scratch pool (DESIGN.md §15). Runs in both device modes so the
// Default-mode entropy draws are covered too, each with the conv
// weight-gradient GEMMs inline and on the pool helper. Prefetch is off so
// the measurement has no loader goroutine; the byte-identity of prefetch
// on/off is pinned separately (data and checkpoint tests).
func TestTrainStepZeroAllocSteadyState(t *testing.T) {
	for _, c := range allocCases {
		t.Run(c.name, func(t *testing.T) {
			check := withWorkers(t, c.workers)
			h := newTrainStepHarness(c.mode)
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
			check()
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
//
// The replica warms on one P, as testing.AllocsPerRun warms before it
// measures: the runtime caches the records (sudogs) a goroutine blocked
// on a channel uses per P, and a GOMAXPROCS change drops the removed Ps'
// caches, so the first wait on the helper's join after the change could
// allocate one. The runtime's own allocations are not the step's, so the
// window also starts with no memory left for the scavenger to return.
func TestTrainStepAllocsAcrossEpochRollovers(t *testing.T) {
	const rollovers = 3
	for _, c := range allocCases {
		t.Run(c.name, func(t *testing.T) {
			check := withWorkers(t, c.workers)
			// One goroutine at a time, as testing.AllocsPerRun measures.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			h := newTrainStepHarness(c.mode)
			// Warm epoch 0 end to end, as the zero-alloc gate does.
			for !h.step() {
			}
			// Return freed memory to the OS now, so that the runtime's
			// background scavenger has none left to work on in the window:
			// when it sleeps between work it arms a timer, and the P's timer
			// heap may grow to take it.
			debug.FreeOSMemory()
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
			check()
		})
	}
}
