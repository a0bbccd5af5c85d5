package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sched"
)

// batchPrefetch gates the loader's background batch assembly (on by
// default). Outputs are byte-identical either way — the data package pins
// that — so this is a diagnostic/test knob, not a result-affecting one:
// the checkpoint-bytes invariance test flips it, and constrained
// environments can switch the helper goroutines off.
var batchPrefetch atomic.Bool

func init() { batchPrefetch.Store(true) }

// SetBatchPrefetch toggles background batch assembly for subsequently
// started replicas and returns the previous setting.
func SetBatchPrefetch(on bool) bool { return batchPrefetch.Swap(on) }

// TrainConfig describes one dataset/model/hardware training recipe.
type TrainConfig struct {
	// Model constructs a fresh, uninitialized network. Each replica builds
	// its own copy.
	Model func() *nn.Sequential
	// Dataset supplies the train and test splits.
	Dataset *data.Dataset
	// Device is the simulated accelerator to train on.
	Device device.Config
	// Epochs, Batch, Schedule, Momentum, WeightDecay define the
	// optimization recipe. WeightDecay of zero (the default) disables L2
	// regularization.
	Epochs      int
	Batch       int
	Schedule    opt.Schedule
	Momentum    float64
	WeightDecay float64
	// Augment configures stochastic input augmentation.
	Augment data.Augment
	// BaseSeed anchors every seed policy; two configs with the same BaseSeed
	// and variant reproduce each other exactly.
	BaseSeed uint64
}

func (c TrainConfig) validate() error {
	if c.Model == nil || c.Dataset == nil {
		return fmt.Errorf("core: TrainConfig needs Model and Dataset")
	}
	if c.Epochs <= 0 || c.Batch <= 0 {
		return fmt.Errorf("core: TrainConfig needs positive Epochs and Batch, got %d/%d", c.Epochs, c.Batch)
	}
	if c.Schedule == nil {
		return fmt.Errorf("core: TrainConfig needs a Schedule")
	}
	return nil
}

// RunResult is the outcome of training one replica.
type RunResult struct {
	Variant      Variant
	Replica      int
	TestAccuracy float64
	// Predictions holds the argmax test-set predictions in split order.
	Predictions []int
	// Weights is the flattened trained weight vector.
	Weights []float32
	// EpochLoss records the mean training loss per epoch.
	EpochLoss []float64
}

// SeedsFor derives a replica's seed policy from the variant. Factors that
// vary get a replica-indexed stream; controlled factors reuse the base
// stream. The device entropy seed stands in for unobservable scheduler
// state (see DESIGN.md §5): replicas get distinct entropy when IMPL varies.
func SeedsFor(base uint64, v Variant, replica int) (initS, shuffleS, augS *rng.Stream, mode device.Mode, entropy *rng.Stream) {
	spec := v.Spec()
	root := rng.New(base)
	pick := func(label string, vary bool) *rng.Stream {
		s := root.Split(label)
		if vary {
			return s.SplitIndex(replica)
		}
		return s
	}
	initS = pick("init", spec.VaryInit)
	shuffleS = pick("shuffle", spec.VaryShuffle)
	augS = pick("augment", spec.VaryAugment)
	if spec.VaryImpl {
		mode = device.Default
		entropy = root.Split("hw-entropy").SplitIndex(replica)
	} else {
		mode = device.Deterministic
	}
	return initS, shuffleS, augS, mode, entropy
}

// Replica is one replica's training state: the network initialized from
// its seed policy (SeedsFor), the simulated device wired to the network's
// activation workspace, the streaming loader and SGD. Its per-batch step
// is the one training step in the repo — RunReplica, trace.Pair and the
// zero-alloc gate (TestTrainStepZeroAllocSteadyState) all drive it.
type Replica struct {
	cfg            TrainConfig
	net            *nn.Sequential
	dev            *device.Device
	loader         *data.Loader
	sgd            *opt.SGD
	shuffleS, augS *rng.Stream
	res            *RunResult
}

// NewReplica validates cfg and builds replica `replica` of the variant,
// ready to train.
func NewReplica(cfg TrainConfig, v Variant, replica int) (*Replica, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	initS, shuffleS, augS, mode, entropy := SeedsFor(cfg.BaseSeed, v, replica)
	r := &Replica{
		cfg:      cfg,
		net:      cfg.Model(),
		dev:      device.New(cfg.Device, mode, entropy),
		loader:   data.NewLoader(cfg.Dataset, cfg.Dataset.Train, cfg.Batch, cfg.Augment),
		sgd:      opt.NewSGD(cfg.Momentum, cfg.WeightDecay),
		shuffleS: shuffleS,
		augS:     augS,
		res:      &RunResult{Variant: v, Replica: replica, EpochLoss: make([]float64, 0, cfg.Epochs)},
	}
	r.net.Init(initS)
	// The network's activation workspace backs every kernel output and
	// grants the elementwise layers in-place updates; resetting it at each
	// batch boundary makes the warm training step allocation-free.
	r.dev.SetWorkspace(r.net.UseWorkspace())
	r.loader.SetPrefetch(batchPrefetch.Load())
	return r, nil
}

// Epoch trains the next pass over the training split and records its mean
// loss. Cancelling ctx aborts at the next batch boundary with ctx.Err(),
// leaving the replica mid-epoch.
func (r *Replica) Epoch(ctx context.Context) error {
	epoch := len(r.res.EpochLoss)
	lr := r.cfg.Schedule.LR(epoch)
	ep := r.batches(epoch)
	var b data.Batch
	var sum float64
	n := 0
	for ep.Next(&b) {
		if err := ctx.Err(); err != nil {
			ep.Close()
			return err
		}
		sum += r.step(&b, lr)
		n++
	}
	r.res.EpochLoss = append(r.res.EpochLoss, sum/float64(n))
	return nil
}

// batches starts epoch `epoch`'s shuffled, augmented batch stream.
func (r *Replica) batches(epoch int) *data.Epoch {
	return r.loader.Epoch(r.shuffleS.SplitIndex(epoch), r.augS.SplitIndex(epoch))
}

// step trains on one batch and returns its mean loss.
func (r *Replica) step(b *data.Batch, lr float64) float64 {
	r.net.ZeroGrad()
	logits := r.net.Forward(r.dev, b.X, true)
	loss, dlogits := nn.SoftmaxCrossEntropyInPlace(r.dev, logits, b.Labels)
	r.net.Backward(r.dev, dlogits)
	r.sgd.Step(r.net.Params(), lr)
	r.net.Workspace().Reset()
	return loss
}

// Weights returns a copy of the current flattened weight vector.
func (r *Replica) Weights() []float32 { return r.net.WeightVector() }

// Result evaluates the network on the test split and returns the
// replica's outcome. Call it once, after the last Epoch.
func (r *Replica) Result() *RunResult {
	test := r.cfg.Dataset.Test
	r.res.Predictions = Predict(r.net, r.dev, r.cfg.Dataset, test, r.cfg.Batch)
	correct := 0
	for i, p := range r.res.Predictions {
		if p == test.Y[i] {
			correct++
		}
	}
	r.res.TestAccuracy = float64(correct) / float64(len(r.res.Predictions))
	r.res.Weights = r.Weights()
	return r.res
}

// RunReplica trains a single replica under the variant's seed policy for
// cfg.Epochs epochs and returns its trained state and test-set behaviour.
// Cancelling ctx aborts the training loop at the next batch boundary with
// ctx.Err(); a partial replica is never returned.
func RunReplica(ctx context.Context, cfg TrainConfig, v Variant, replica int) (*RunResult, error) {
	r, err := NewReplica(cfg, v, replica)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := r.Epoch(ctx); err != nil {
			return nil, err
		}
	}
	return r.Result(), nil
}

// Predict runs the network over a split in fixed order (no shuffling, no
// augmentation, eval-mode statistics) and returns argmax predictions. The
// predictions slice is preallocated at the split size and eval batches are
// streamed, so the only per-call allocation is the result itself.
func Predict(net *nn.Sequential, dev *device.Device, d *data.Dataset, sp *data.Split, batch int) []int {
	loader := data.NewLoader(d, sp, batch, data.Augment{})
	preds := make([]int, sp.N())
	ws := dev.Workspace()
	off := 0
	ep := loader.Epoch(nil, nil)
	var b data.Batch
	for ep.Next(&b) {
		logits := net.Forward(dev, b.X, false)
		n := logits.Dim(0)
		logits.ArgmaxRowsInto(preds[off : off+n])
		off += n
		if ws != nil {
			ws.Reset()
		}
	}
	return preds
}

// RunVariant trains `replicas` independent replicas under the variant,
// distributing them over the sched worker pool. Replicas are independent by
// construction — each derives its own seed policy from (BaseSeed, variant,
// replica index) via SeedsFor and owns its network, optimizer and simulated
// device — so the parallel schedule is bit-identical to a sequential loop.
// Cancelling ctx aborts every in-flight replica at its next batch boundary
// and RunVariant returns an error wrapping ctx.Err().
func RunVariant(ctx context.Context, cfg TrainConfig, v Variant, replicas int) ([]*RunResult, error) {
	if replicas <= 0 {
		return nil, fmt.Errorf("core: need at least one replica, got %d", replicas)
	}
	return sched.Map(ctx, replicas, func(r int) (*RunResult, error) {
		res, err := RunReplica(ctx, cfg, v, r)
		if err != nil {
			return nil, fmt.Errorf("core: variant %s replica %d: %w", v, r, err)
		}
		return res, nil
	})
}
