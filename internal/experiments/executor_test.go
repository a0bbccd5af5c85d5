package experiments

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
)

// TestWorkUnitRoundTripBitIdentical pins the fleet correctness
// contract: a replica resolved from a wire-serialized WorkUnit (a
// worker's view) is bit-identical to the same replica trained through
// the local population path (the coordinator's view).
func TestWorkUnitRoundTripBitIdentical(t *testing.T) {
	cfg := tinyCfg()
	task := tinyTask(1)
	local := NewPopulations(8)
	pop, _, err := local.population(context.Background(), nil, cfg, task, device.V100, core.Impl)
	if err != nil {
		t.Fatal(err)
	}

	u := task.workUnit(cfg, device.V100, core.Impl, 0)
	wire, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	var decoded WorkUnit
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}
	remote := NewPopulations(8) // a "worker": fresh cache, same catalogs
	res, err := remote.TrainUnit(context.Background(), decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(pop[0]) {
		t.Fatal("work-unit round trip is not bit-identical to local training")
	}
}

// TestTrainUnitRefusesDivergedUnit proves the catalog-skew guard: a
// unit whose resolved recipe cannot reproduce its own cell key (here, a
// tampered hyperparameter) is refused, never trained.
func TestTrainUnitRefusesDivergedUnit(t *testing.T) {
	u := tinyTask(1).workUnit(tinyCfg(), device.V100, core.Impl, 0)
	u.LR *= 2 // skew: the cell key still describes the original lr
	if _, err := NewPopulations(8).TrainUnit(context.Background(), u); err == nil ||
		!strings.Contains(err.Error(), "out of sync") {
		t.Fatalf("diverged unit trained anyway (err = %v)", err)
	}
	u = tinyTask(1).workUnit(tinyCfg(), device.V100, core.Impl, 0)
	u.Task = "no-such-task"
	if _, err := NewPopulations(8).TrainUnit(context.Background(), u); err == nil {
		t.Fatal("unknown task resolved")
	}
}

// recordingExecutor captures the units a population dispatches and
// answers them locally. Replicas train concurrently, so units is guarded.
type recordingExecutor struct {
	inner LocalExecutor
	mu    sync.Mutex
	units []WorkUnit
}

func (r *recordingExecutor) Train(ctx context.Context, u WorkUnit) (*core.RunResult, error) {
	r.mu.Lock()
	r.units = append(r.units, u)
	r.mu.Unlock()
	return r.inner.Train(ctx, u)
}

// TestExecutorReceivesMissesOnly proves the extraction point sits
// exactly at the miss: ledger hits never reach the executor, every miss
// does, and the results an executor returns still publish to the ledger
// (the single merge point) so a re-request dispatches nothing.
func TestExecutorReceivesMissesOnly(t *testing.T) {
	cfg := tinyCfg()
	cfg.Replicas = 3
	task := tinyTask(1)
	p := NewPopulations(8)
	// Warm replica 0 through the local path first.
	warm := cfg
	warm.Replicas = 1
	if _, _, err := p.population(context.Background(), nil, warm, task, device.V100, core.Impl); err != nil {
		t.Fatal(err)
	}
	exec := &recordingExecutor{inner: LocalExecutor{Pops: NewPopulations(8)}}
	p.SetExecutor(exec)
	pop, _, err := p.population(context.Background(), nil, cfg, task, device.V100, core.Impl)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop) != 3 {
		t.Fatalf("population size %d, want 3", len(pop))
	}
	if len(exec.units) != 2 {
		t.Fatalf("executor saw %d units, want 2 (replica 0 was a ledger hit)", len(exec.units))
	}
	for _, u := range exec.units {
		if u.Replica == 0 {
			t.Fatal("executor dispatched a replica the ledger already held")
		}
	}
	// Everything is merged: a repeat request dispatches nothing.
	seen := len(exec.units)
	if _, _, err := p.population(context.Background(), nil, cfg, task, device.V100, core.Impl); err != nil {
		t.Fatal(err)
	}
	if len(exec.units) != seen {
		t.Fatal("repeat request re-dispatched merged replicas")
	}
	// And executor results are bit-identical to local training.
	q := NewPopulations(8)
	want, _, err := q.population(context.Background(), nil, cfg, task, device.V100, core.Impl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !pop[i].Equal(want[i]) {
			t.Fatalf("replica %d via executor differs from local training", i)
		}
	}
}
