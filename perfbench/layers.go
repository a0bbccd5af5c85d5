package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// This file is the traced training loop: the benchmark trains one
// replica itself through the public calls core.RunReplica makes, timing
// each call into the data, nn, opt, tensor and core layers, and checks
// that the replica it trained equals core.RunReplica's bit for bit.

// errCaptured stops a grid run once its work units are captured.
var errCaptured = errors.New("work unit captured")

// captureExec is an experiments.Executor that records the units it is
// handed instead of training them.
type captureExec struct {
	mu    sync.Mutex
	units []experiments.WorkUnit
}

func (c *captureExec) Train(_ context.Context, u experiments.WorkUnit) (*core.RunResult, error) {
	c.mu.Lock()
	c.units = append(c.units, u)
	c.mu.Unlock()
	return nil, errCaptured
}

// unitFor returns the work unit of replica 0 of the first cell of g: the
// exact recipe, device, variant and seed the server trains.
func unitFor(ctx context.Context, g gridReq) (experiments.WorkUnit, error) {
	g.spec.Devices = g.spec.Devices[:1]
	g.spec.Variants = g.spec.Variants[:1]
	plan, cfg, err := g.plan()
	if err != nil {
		return experiments.WorkUnit{}, err
	}
	x := &captureExec{}
	pops := experiments.NewPopulations(0)
	pops.SetExecutor(x)
	if _, err := pops.RunPlan(ctx, plan, cfg); !errors.Is(err, errCaptured) {
		return experiments.WorkUnit{}, fmt.Errorf("capturing a work unit: %v", err)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	sort.Slice(x.units, func(i, j int) bool { return x.units[i].Replica < x.units[j].Replica })
	if len(x.units) == 0 || x.units[0].Replica != 0 {
		return experiments.WorkUnit{}, fmt.Errorf("no work unit for replica 0 captured")
	}
	return x.units[0], nil
}

// trainConfigFor rebuilds the training configuration of a work unit from
// the public model, dataset and optimizer constructors. A rebuild that
// drifts from the registered recipe shows up as a bit mismatch against
// the server's own training of the same unit.
func trainConfigFor(u experiments.WorkUnit) (core.TrainConfig, core.Variant, error) {
	var model func(classes int) *nn.Sequential
	switch u.Task {
	case "SmallCNN CIFAR-10":
		model = func(k int) *nn.Sequential { return models.SmallCNN(models.DefaultSmallCNN(k)) }
	case "ResNet18 CIFAR-10":
		model = models.ResNet18
	default:
		return core.TrainConfig{}, 0, fmt.Errorf("no model for task %q", u.Task)
	}
	scale, err := data.ParseScale(u.Scale)
	if err != nil {
		return core.TrainConfig{}, 0, err
	}
	dev, err := device.ByName(u.Device)
	if err != nil {
		return core.TrainConfig{}, 0, err
	}
	v, err := core.ParseVariant(u.Variant)
	if err != nil {
		return core.TrainConfig{}, 0, err
	}
	ds := data.CIFAR10Like(scale)
	return core.TrainConfig{
		Model:       func() *nn.Sequential { return model(ds.Classes) },
		Dataset:     ds,
		Device:      dev,
		Epochs:      u.Epochs,
		Batch:       u.Batch,
		Schedule:    opt.StepDecay{Base: u.LR, Factor: 10, Every: int(float64(u.Epochs) * u.DecayAt)},
		Momentum:    0.9,
		WeightDecay: u.WeightDecay,
		Augment:     data.Augment{Shift: u.AugmentShift, Flip: u.AugmentFlip},
		BaseSeed:    u.Seed,
	}, v, nil
}

// layerKind names the nn.* metric family a layer's time counts toward.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv"
	case *nn.BatchNorm:
		return "bn"
	case *nn.ReLU:
		return "relu"
	case *nn.MaxPool2D, *nn.GlobalAvgPool:
		return "pool"
	case *nn.Dense:
		return "dense"
	case *nn.Residual:
		return "residual"
	}
	return "other"
}

// stepStats are the per-step counters the traced loop reads beside its
// spans.
type stepStats struct {
	kernels []int64    // device kernel launches per step
	allocs  []int64    // heap objects allocated per step
	shapes  [][2][]int // each top-level layer's input and output shape, from the first step
}

// driveReplica trains one replica exactly as core.RunReplica does, call
// for call. With a span log it records a span around every call into a
// layer and per-step counters; with a nil log it records nothing.
func driveReplica(ctx context.Context, tc core.TrainConfig, v core.Variant, replica int, log *spanLog, st *stepStats) (*core.RunResult, error) {
	initS, shuffleS, augS, mode, entropy := core.SeedsFor(tc.BaseSeed, v, replica)
	net := tc.Model()
	net.Init(initS)
	dev := device.New(tc.Device, mode, entropy)
	ws := net.UseWorkspace()
	dev.SetWorkspace(ws)
	loader := data.NewLoader(tc.Dataset, tc.Dataset.Train, tc.Batch, tc.Augment)
	loader.SetPrefetch(true)
	sgd := opt.NewSGD(tc.Momentum, tc.WeightDecay)

	layers := net.Layers()
	fwd := make([]string, len(layers))
	bwd := make([]string, len(layers))
	for i, l := range layers {
		fwd[i] = "nn." + layerKind(l) + ".fwd"
		bwd[i] = "nn." + layerKind(l) + ".bwd"
	}
	allocSample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	readAllocs := func() int64 {
		metrics.Read(allocSample)
		return int64(allocSample[0].Value.Uint64())
	}

	res := &core.RunResult{Variant: v, Replica: replica, EpochLoss: make([]float64, 0, tc.Epochs)}
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		lr := tc.Schedule.LR(epoch)
		var epochLoss float64
		batches := 0
		ep := loader.Epoch(shuffleS.SplitIndex(epoch), augS.SplitIndex(epoch))
		var b data.Batch
		for {
			var kern0, alloc0 int64
			if log != nil {
				kern0, alloc0 = dev.KernelLaunches(), readAllocs()
			}
			step := log.begin("core.step", -1)
			sp := log.begin("data.next", step)
			more := ep.Next(&b)
			log.end(sp)
			if !more {
				log.truncate(step)
				break
			}
			if err := ctx.Err(); err != nil {
				ep.Close()
				return nil, err
			}
			sp = log.begin("nn.zero_grad", step)
			net.ZeroGrad()
			log.end(sp)
			x := b.X
			for i, l := range layers {
				var in []int
				if st != nil && len(st.shapes) < len(layers) {
					in = append([]int(nil), x.Shape()...)
				}
				sp = log.begin(fwd[i], step)
				x = l.Forward(dev, x, true)
				log.end(sp)
				if in != nil {
					st.shapes = append(st.shapes, [2][]int{in, append([]int(nil), x.Shape()...)})
				}
			}
			sp = log.begin("nn.loss", step)
			loss, dy := nn.SoftmaxCrossEntropyInPlace(dev, x, b.Labels)
			log.end(sp)
			for i := len(layers) - 1; i >= 0; i-- {
				sp = log.begin(bwd[i], step)
				dy = layers[i].Backward(dev, dy)
				log.end(sp)
			}
			sp = log.begin("opt.sgd", step)
			sgd.Step(net.Params(), lr)
			log.end(sp)
			epochLoss += loss
			batches++
			sp = log.begin("tensor.ws_reset", step)
			ws.Reset()
			log.end(sp)
			log.end(step)
			if log != nil {
				st.kernels = append(st.kernels, dev.KernelLaunches()-kern0)
				st.allocs = append(st.allocs, readAllocs()-alloc0)
			}
		}
		res.EpochLoss = append(res.EpochLoss, epochLoss/float64(batches))
	}
	sp := log.begin("core.predict", -1)
	res.Predictions = core.Predict(net, dev, tc.Dataset, tc.Dataset.Test, tc.Batch)
	log.end(sp)
	correct := 0
	for i, p := range res.Predictions {
		if p == tc.Dataset.Test.Y[i] {
			correct++
		}
	}
	res.TestAccuracy = float64(correct) / float64(len(res.Predictions))
	res.Weights = net.WeightVector()
	return res, nil
}

// sameReplica reports the first difference between two trained replicas,
// comparing every float by bit pattern; "" means bit-identical.
func sameReplica(a, b *core.RunResult) string {
	switch {
	case len(a.Weights) != len(b.Weights):
		return fmt.Sprintf("weight count %d vs %d", len(a.Weights), len(b.Weights))
	case len(a.Predictions) != len(b.Predictions):
		return "prediction count differs"
	case len(a.EpochLoss) != len(b.EpochLoss):
		return "epoch count differs"
	case math.Float64bits(a.TestAccuracy) != math.Float64bits(b.TestAccuracy):
		return "test accuracy differs"
	}
	for i := range a.Weights {
		if math.Float32bits(a.Weights[i]) != math.Float32bits(b.Weights[i]) {
			return fmt.Sprintf("weight %d differs", i)
		}
	}
	for i := range a.Predictions {
		if a.Predictions[i] != b.Predictions[i] {
			return fmt.Sprintf("prediction %d differs", i)
		}
	}
	for i := range a.EpochLoss {
		if math.Float64bits(a.EpochLoss[i]) != math.Float64bits(b.EpochLoss[i]) {
			return fmt.Sprintf("epoch %d loss differs", i)
		}
	}
	return ""
}

// tracePairs is how many pairs of untraced and traced passes
// traceTraining runs; it is even, so each side runs first equally often.
const tracePairs = 2

// traceTraining trains the unit alternately with spans off and on, and
// through experiments' own TrainUnit (core.RunReplica); checks all of
// them agree bit for bit; and derives the training layers' metrics
// from the traced pass. It returns the spans for the span log file.
func traceTraining(ctx context.Context, u experiments.WorkUnit, out map[string]float64) ([]span, []tensor.ConvGeom, error) {
	tc, v, err := trainConfigFor(u)
	if err != nil {
		return nil, nil, err
	}
	// The trace overhead compares the medians of the untraced and the
	// traced passes.
	steps := tc.Epochs * ((tc.Dataset.Train.N() + tc.Batch - 1) / tc.Batch)
	var plain, traced *core.RunResult
	var log *spanLog
	var st *stepStats
	var plainWall, tracedWall []float64
	untracedPass := func() error {
		t0 := time.Now()
		res, err := driveReplica(ctx, tc, v, u.Replica, nil, nil)
		if err != nil {
			return err
		}
		plainWall = append(plainWall, time.Since(t0).Seconds())
		if plain != nil {
			if d := sameReplica(res, plain); d != "" {
				return fmt.Errorf("two untraced passes differ: %s", d)
			}
		}
		plain = res
		return nil
	}
	tracedPass := func() error {
		// Each step opens two spans per layer plus eight of its own.
		log = newSpanLog(steps*(2*len(tc.Model().Layers())+8) + 16)
		st = &stepStats{}
		t0 := time.Now()
		var err error
		if traced, err = driveReplica(ctx, tc, v, u.Replica, log, st); err != nil {
			return err
		}
		tracedWall = append(tracedWall, time.Since(t0).Seconds())
		return nil
	}
	// The passes run untraced, traced, traced, untraced, ...: whichever
	// pass of a pair runs first is the slower one, and this order puts
	// each side first equally often.
	for i := 0; i < tracePairs; i++ {
		passes := []func() error{untracedPass, tracedPass}
		if i%2 == 1 {
			passes[0], passes[1] = passes[1], passes[0]
		}
		for _, pass := range passes {
			if err := pass(); err != nil {
				return nil, nil, err
			}
		}
	}
	ref, err := experiments.NewPopulations(0).TrainUnit(ctx, u)
	if err != nil {
		return nil, nil, err
	}
	if d := sameReplica(plain, ref); d != "" {
		return nil, nil, fmt.Errorf("benchmark-driven replica differs from core.RunReplica: %s", d)
	}
	if d := sameReplica(traced, ref); d != "" {
		return nil, nil, fmt.Errorf("traced replica differs from core.RunReplica: %s", d)
	}
	out["bench.trace_overhead_pct"] = 100 * (median(tracedWall) - median(plainWall)) / median(plainWall)

	// Per-step figures come from the warm steps: every epoch after the
	// first, once pools and the loader have filled.
	stepsPerEpoch := len(st.kernels) / tc.Epochs
	warmFrom := 0
	if tc.Epochs > 1 {
		warmFrom = stepsPerEpoch
	}
	spans := log.spans
	self := selfTimes(spans)
	total := map[string]float64{}
	var stepDur []float64
	var stepSum, stepSelf float64
	stepIdx := -1
	for i, s := range spans {
		d := float64(s.End - s.Start)
		if s.Name == "core.step" {
			stepIdx++
		}
		if s.Name == "core.predict" {
			out["core.predict_ms"] = d / 1e6
			continue
		}
		if stepIdx < warmFrom {
			continue
		}
		if s.Name == "core.step" {
			stepDur = append(stepDur, d/1e6)
			stepSum += d
			stepSelf += float64(self[i])
			continue
		}
		total[s.Name] += d
	}
	warm := float64(len(stepDur))
	perStepMs := func(name string) float64 { return total[name] / warm / 1e6 }
	out["data.next_ms"] = perStepMs("data.next")
	out["data.wait_share"] = total["data.next"] / stepSum
	for _, k := range nnKinds {
		out["nn."+k+".fwd_ms"] = perStepMs("nn." + k + ".fwd")
		out["nn."+k+".bwd_ms"] = perStepMs("nn." + k + ".bwd")
	}
	out["nn.loss_ms"] = perStepMs("nn.loss")
	out["opt.sgd_ms"] = perStepMs("opt.sgd")
	out["tensor.ws_reset_ms"] = perStepMs("tensor.ws_reset")
	out["core.step_p50_ms"] = median(stepDur)
	out["core.step_tail_ms"], _ = pctOrTail(stepDur, 99)
	out["core.unaccounted_pct"] = 100 * stepSelf / stepSum
	var kern, allocs float64
	for i := warmFrom; i < len(st.kernels); i++ {
		kern += float64(st.kernels[i])
		allocs += float64(st.allocs[i])
	}
	out["device.kernels_per_step"] = kern / warm
	out["core.allocs_per_step"] = allocs / warm

	geoms, gflop := stepGEMMs(tc.Model(), st.shapes)
	out["device.gemm_gflop_per_step"] = gflop
	return spans, geoms, nil
}

// stepGEMMs derives, from one step's layer input and output shapes, the
// convolution geometries the model runs and the GEMM work of one
// training step in GFLOP (computed, not counted): every convolution and
// dense layer does one forward GEMM and two backward GEMMs of the same
// size. Residual blocks are read as the basic blocks internal/models
// builds: 3×3 body convolutions, the first one strided, and an optional
// 1×1 strided projection.
func stepGEMMs(net *nn.Sequential, shapes [][2][]int) ([]tensor.ConvGeom, float64) {
	var geoms []tensor.ConvGeom
	var flop float64
	conv := func(g tensor.ConvGeom) {
		geoms = append(geoms, g)
		flop += 3 * 2 * float64(g.OutC) * float64(g.ColRows()) * float64(g.ColCols())
	}
	for i, l := range net.Layers() {
		if i >= len(shapes) {
			break
		}
		in, outShape := shapes[i][0], shapes[i][1]
		switch l := l.(type) {
		case *nn.Conv2D:
			k := l.Kernel()
			s := in[2] / outShape[2]
			conv(tensor.ConvGeom{Batch: in[0], InC: in[1], InH: in[2], InW: in[3], OutC: l.OutChannels(),
				KH: k, KW: k, Stride: s, Pad: ((outShape[2]-1)*s + k - in[2] + 1) / 2})
		case *nn.Dense:
			w := l.Params()[0].Value
			flop += 3 * 2 * float64(in[0]) * float64(w.Dim(0)) * float64(w.Dim(1))
		case *nn.Residual:
			n, c, h := in[0], in[1], in[2]
			s := h / outShape[2]
			cin, hin, first := c, h, true
			for _, p := range l.Params() {
				w := p.Value
				if w.Rank() != 2 {
					continue
				}
				outC, cols := w.Dim(0), w.Dim(1)
				switch {
				case cols == cin*9:
					st := 1
					if first {
						st = s
					}
					conv(tensor.ConvGeom{Batch: n, InC: cin, InH: hin, InW: hin, OutC: outC, KH: 3, KW: 3, Stride: st, Pad: 1})
					cin, hin, first = outC, hin/st, false
				case cols == c:
					conv(tensor.ConvGeom{Batch: n, InC: c, InH: h, InW: h, OutC: outC, KH: 1, KW: 1, Stride: s, Pad: 0})
				}
			}
		}
	}
	return geoms, flop / 1e9
}
