// Package trace instruments how implementation noise grows during
// training. The paper observes that one-ulp accumulation differences end as
// macroscopic divergence; this package records the trajectory in between —
// the weight-space distance between two replicas after every epoch — so the
// exponential amplification regime, its onset, and the damping effect of
// design choices like batch normalization can be measured directly.
//
// This is reproduction infrastructure the paper's analysis implies but does
// not ship: a paired-replica trainer that keeps both models in lockstep on
// identical batches and differs only in the factors the chosen variant
// varies.
package trace

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Point is one epoch's divergence measurement between the paired replicas.
type Point struct {
	Epoch int
	// MaxAbsDiff is the largest absolute weight difference.
	MaxAbsDiff float64
	// L2 is the normalized weight-vector distance (paper's l2 measure).
	L2 float64
}

// Trajectory is the divergence curve of one paired run.
type Trajectory struct {
	Variant core.Variant
	Points  []Point
}

// Final returns the last measurement (zero Point if empty).
func (t *Trajectory) Final() Point {
	if len(t.Points) == 0 {
		return Point{}
	}
	return t.Points[len(t.Points)-1]
}

// AmplificationOnset returns the first epoch at which MaxAbsDiff exceeded
// threshold, or -1 if it never did. With threshold around 1e-4 this locates
// the knee where rounding noise becomes macroscopic.
func (t *Trajectory) AmplificationOnset(threshold float64) int {
	for _, p := range t.Points {
		if p.MaxAbsDiff > threshold {
			return p.Epoch
		}
	}
	return -1
}

// MonotoneAfterOnset reports whether MaxAbsDiff never falls below
// fraction*peak once the onset threshold is crossed — a loose check that
// the divergence regime is sustained growth rather than a transient.
func (t *Trajectory) MonotoneAfterOnset(threshold, fraction float64) bool {
	onset := t.AmplificationOnset(threshold)
	if onset < 0 {
		return false
	}
	peak := 0.0
	for _, p := range t.Points {
		if p.Epoch < onset {
			continue
		}
		if p.MaxAbsDiff > peak {
			peak = p.MaxAbsDiff
		}
		if p.MaxAbsDiff < fraction*peak {
			return false
		}
	}
	return true
}

// Pair trains two replicas of cfg in lockstep under the given variant
// (replica indices 0 and 1) and records their weight divergence after every
// epoch. Unlike core.RunVariant, both models see exactly interleaved
// execution, so the curve is sampled at identical optimization steps.
func Pair(cfg core.TrainConfig, v core.Variant) (*Trajectory, error) {
	if cfg.Model == nil || cfg.Dataset == nil || cfg.Epochs <= 0 || cfg.Batch <= 0 || cfg.Schedule == nil {
		return nil, fmt.Errorf("trace: incomplete TrainConfig")
	}
	type rep struct {
		net      *nn.Sequential
		dev      *device.Device
		ws       *tensor.Workspace
		loader   *data.Loader
		sgd      *opt.SGD
		shuffleS *rng.Stream
		augS     *rng.Stream
	}
	mk := func(replica int) rep {
		initS, shuffleS, augS, mode, entropy := core.SeedsFor(cfg.BaseSeed, v, replica)
		net := cfg.Model()
		net.Init(initS)
		dev := device.New(cfg.Device, mode, entropy)
		ws := net.UseWorkspace()
		dev.SetWorkspace(ws)
		return rep{
			net:      net,
			dev:      dev,
			ws:       ws,
			loader:   data.NewLoader(cfg.Dataset, cfg.Dataset.Train, cfg.Batch, cfg.Augment),
			sgd:      opt.NewSGD(cfg.Momentum, cfg.WeightDecay),
			shuffleS: shuffleS,
			augS:     augS,
		}
	}
	a, b := mk(0), mk(1)

	tr := &Trajectory{Variant: v}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.Schedule.LR(epoch)
		for _, r := range []*rep{&a, &b} {
			ep := r.loader.Epoch(r.shuffleS.SplitIndex(epoch), r.augS.SplitIndex(epoch))
			var batch data.Batch
			for ep.Next(&batch) {
				r.net.ZeroGrad()
				logits := r.net.Forward(r.dev, batch.X, true)
				_, dlogits := nn.SoftmaxCrossEntropyInPlace(r.dev, logits, batch.Labels)
				r.net.Backward(r.dev, dlogits)
				r.sgd.Step(r.net.Params(), lr)
				r.ws.Reset()
			}
		}
		wa, wb := a.net.WeightVector(), b.net.WeightVector()
		tr.Points = append(tr.Points, Point{
			Epoch:      epoch,
			MaxAbsDiff: maxAbsDiff(wa, wb),
			L2:         metrics.L2Normalized(wa, wb),
		})
	}
	return tr, nil
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}
