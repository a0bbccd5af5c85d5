package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
)

// WorkUnit is the wire-serializable description of one replica training:
// the fully *resolved* recipe (every hyperparameter a recipe override
// could have touched, with the epoch budget already fixed for the scale),
// the device, variant, scale and seed, plus the replica index. A unit is
// self-contained — any process holding the same catalogs can execute it
// with TrainUnit and, by the determinism contract, produce a result
// bit-identical to training it locally. Cell is the replica-ledger cell
// key the unit must resolve back to; executors verify the round trip so
// a coordinator and a worker with diverged catalogs fail loudly instead
// of silently merging a different experiment's replica.
type WorkUnit struct {
	// Cell is the replica-ledger cell key (see taskSpec.cellKey) the
	// resolved unit must reproduce exactly.
	Cell string `json:"cell"`
	// Task names the registered workload recipe (dataset + model).
	Task string `json:"task"`
	// The resolved training hyperparameters. Epochs is the scale-resolved
	// budget, not a schedule.
	LR           float64 `json:"lr"`
	Batch        int     `json:"batch"`
	Epochs       int     `json:"epochs"`
	DecayAt      float64 `json:"decay_at"`
	WeightDecay  float64 `json:"weight_decay"`
	AugmentShift int     `json:"augment_shift"`
	AugmentFlip  bool    `json:"augment_flip"`
	// Device, Variant and Scale are canonical catalog spellings.
	Device  string `json:"device"`
	Variant string `json:"variant"`
	Scale   string `json:"scale"`
	// Seed anchors the seed policy; Replica selects the member of the
	// population (seeds derive from (Seed, Variant, Replica)).
	Seed    uint64 `json:"seed"`
	Replica int    `json:"replica"`
}

// Executor is where a replica miss actually trains. The population layer
// resolves ledger hits itself and hands every miss — as a WorkUnit — to
// its executor; with no executor configured it trains in process on the
// sched pool, exactly as before executors existed. A distributed
// coordinator (internal/fleet) implements Executor by enqueueing the
// unit for a remote worker fleet and blocking until one uploads the
// result. Implementations must honor ctx cancellation and must return
// results bit-identical to local training (the goldens pin this).
type Executor interface {
	Train(ctx context.Context, u WorkUnit) (*core.RunResult, error)
}

// LocalExecutor trains units in process via TrainUnit on a Populations
// cache (nil Pops = the shared default). It is the reference Executor:
// the explicit form of the nil-executor fallback, used by tests to prove
// the WorkUnit round trip is bit-identical to the direct path, and by
// the fleet worker as its training core.
type LocalExecutor struct {
	Pops *Populations
}

// Train resolves and trains the unit locally.
func (l LocalExecutor) Train(ctx context.Context, u WorkUnit) (*core.RunResult, error) {
	p := l.Pops
	if p == nil {
		p = defaultPops
	}
	return p.TrainUnit(ctx, u)
}

// SetExecutor installs the executor behind this cache's replica misses
// (nil restores in-process training). The server's fleet wiring points
// the cache at a coordinator here at startup, before serving traffic.
func (p *Populations) SetExecutor(x Executor) {
	p.mu.Lock()
	p.exec = x
	p.mu.Unlock()
}

// TrainUnit resolves a WorkUnit against the local catalogs and trains it
// in process — the fleet worker's entry point, and the definition of
// what a unit means. The unit's recipe is applied over the registered
// task, the resolved cell key is verified against the unit's, and the
// replica trains with exactly the code path local populations use, so
// the result is bit-identical wherever it is computed. The dataset comes
// from this cache's bounded dataset cache, so a worker grinding through
// one grid generates each dataset once.
func (p *Populations) TrainUnit(ctx context.Context, u WorkUnit) (*core.RunResult, error) {
	tc, v, err := p.resolveUnit(u)
	if err != nil {
		return nil, err
	}
	return core.RunReplica(ctx, tc, v, u.Replica)
}

// resolveUnit turns a wire unit back into an executable training
// configuration, failing loudly when any name no longer resolves or the
// resolved recipe does not reproduce the unit's cell key.
func (p *Populations) resolveUnit(u WorkUnit) (core.TrainConfig, core.Variant, error) {
	var zero core.TrainConfig
	t, err := taskByName(u.Task)
	if err != nil {
		return zero, 0, err
	}
	scale, err := data.ParseScale(u.Scale)
	if err != nil {
		return zero, 0, err
	}
	v, err := core.ParseVariant(u.Variant)
	if err != nil {
		return zero, 0, err
	}
	dev, err := device.ByName(u.Device)
	if err != nil {
		return zero, 0, err
	}
	t.lr = u.LR
	t.batch = u.Batch
	t.epochs = [3]int{u.Epochs, u.Epochs, u.Epochs}
	t.decayAt = u.DecayAt
	t.weightDecay = u.WeightDecay
	t.augment = data.Augment{Shift: u.AugmentShift, Flip: u.AugmentFlip}
	cfg := Config{Scale: scale, Seed: u.Seed}
	if got := t.cellKey(cfg, dev, v); got != u.Cell {
		return zero, 0, fmt.Errorf("experiments: work unit resolves to cell %q, not %q (catalogs out of sync between coordinator and worker?)", got, u.Cell)
	}
	tc, _ := t.trainConfig(p, cfg, dev)
	return tc, v, nil
}

// workUnit builds the wire form of one replica of this (already
// recipe-resolved) task cell.
func (t taskSpec) workUnit(cfg Config, dev device.Config, v core.Variant, replica int) WorkUnit {
	return WorkUnit{
		Cell:         t.cellKey(cfg, dev, v),
		Task:         t.name,
		LR:           t.lr,
		Batch:        t.batch,
		Epochs:       t.epochs[cfg.Scale],
		DecayAt:      t.decayAt,
		WeightDecay:  t.weightDecay,
		AugmentShift: t.augment.Shift,
		AugmentFlip:  t.augment.Flip,
		Device:       dev.Name,
		Variant:      v.String(),
		Scale:        cfg.Scale.String(),
		Seed:         cfg.Seed,
		Replica:      replica,
	}
}
