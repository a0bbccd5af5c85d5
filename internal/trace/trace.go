// Package trace instruments how implementation noise grows during
// training. The paper observes that one-ulp accumulation differences end as
// macroscopic divergence; this package records the trajectory in between —
// the weight-space distance between two replicas after every epoch — so the
// exponential amplification regime, its onset, and the damping effect of
// design choices like batch normalization can be measured directly.
//
// This is reproduction infrastructure the paper's analysis implies but does
// not ship: two core.Replicas stepped epoch by epoch in lockstep, differing
// only in the factors the chosen variant varies.
package trace

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
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

// Pair trains replicas 0 and 1 of cfg under the given variant as two
// core.Replicas stepped epoch by epoch, and records their weight divergence
// after every epoch. Each replica trains exactly as core.RunReplica would
// train it; the pairing only samples both at identical optimization steps.
func Pair(cfg core.TrainConfig, v core.Variant) (*Trajectory, error) {
	a, err := core.NewReplica(cfg, v, 0)
	if err != nil {
		return nil, err
	}
	b, err := core.NewReplica(cfg, v, 1)
	if err != nil {
		return nil, err
	}
	tr := &Trajectory{Variant: v}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, r := range []*core.Replica{a, b} {
			if err := r.Epoch(context.TODO()); err != nil {
				return nil, err
			}
		}
		wa, wb := a.Weights(), b.Weights()
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
