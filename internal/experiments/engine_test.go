package experiments

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/grid"
)

// tinyCfg keeps engine tests fast: one replica at test scale.
func tinyCfg() Config {
	return Config{Scale: data.ScaleTest, Replicas: 1, Seed: 7}
}

// tinyTask is the cheapest trainable recipe: the small CNN cut to a
// handful of epochs via a recipe override.
func tinyTask(epochs int) taskSpec {
	return taskSmallCNNC10.withRecipe(grid.Recipe{Epochs: epochs})
}

// TestPopulationKeyHashesFullRecipe pins the cache-key contract: two
// recipes with the same task name but different hyperparameters must
// train separate populations (a name-only key would let any override
// silently collide with the paper population).
func TestPopulationKeyHashesFullRecipe(t *testing.T) {
	p := NewPopulations(8)
	cfg := tinyCfg()
	ctx := context.Background()

	base := tinyTask(1)
	hotter := base
	hotter.lr = base.lr * 2 // same name, different recipe

	if _, _, err := p.population(ctx, nil, cfg, base, device.V100, core.Impl); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.population(ctx, nil, cfg, hotter, device.V100, core.Impl); err != nil {
		t.Fatal(err)
	}
	if got := p.Trains(); got != 2 {
		t.Fatalf("same-name recipes with different lr trained %d replicas, want 2 (key collision)", got)
	}
	// Identical recipe: pure cache hit.
	if _, _, err := p.population(ctx, nil, cfg, base, device.V100, core.Impl); err != nil {
		t.Fatal(err)
	}
	if got := p.Trains(); got != 2 {
		t.Fatalf("identical recipe retrained: %d trains", got)
	}
	// Every hyperparameter is part of the key — and the replica count is
	// deliberately NOT (that is what lets population sizes share prefixes).
	a, b := base, base
	a.batch, b.weightDecay = 16, 0.001
	for _, task := range []taskSpec{a, b} {
		if task.cellKey(cfg, device.V100, core.Impl) == base.cellKey(cfg, device.V100, core.Impl) {
			t.Fatalf("cell key ignores a hyperparameter: %+v", task)
		}
	}
	big := cfg
	big.Replicas = 30
	if base.cellKey(big, device.V100, core.Impl) != base.cellKey(cfg, device.V100, core.Impl) {
		t.Fatal("cell key depends on the replica count; prefix sharing impossible")
	}
}

// TestPopulationsBounded proves LRU eviction at replica granularity:
// with capacity 1, training a second cell's replica evicts the first,
// and re-requesting it retrains.
func TestPopulationsBounded(t *testing.T) {
	p := NewPopulations(1)
	cfg := tinyCfg()
	ctx := context.Background()
	a, b := tinyTask(1), tinyTask(2)

	if _, _, err := p.population(ctx, nil, cfg, a, device.V100, core.Impl); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.population(ctx, nil, cfg, b, device.V100, core.Impl); err != nil {
		t.Fatal(err)
	}
	if got := p.Len(); got != 1 {
		t.Fatalf("capacity-1 cache holds %d completed replicas", got)
	}
	if _, _, err := p.population(ctx, nil, cfg, a, device.V100, core.Impl); err != nil {
		t.Fatal(err)
	}
	if got := p.Trains(); got != 3 {
		t.Fatalf("evicted replica not retrained: %d trains, want 3", got)
	}
}

// TestDatasetCacheBounded proves the dataset cache evicts too: with a
// cap of 1, alternating between two datasets regenerates on every
// return, and a bounded-cap cache never grows past its cap.
func TestDatasetCacheBounded(t *testing.T) {
	p := NewPopulations(8)
	p.dsCap = 1
	gens := map[string]int{}
	gen := func(name string) func(data.Scale) *data.Dataset {
		return func(s data.Scale) *data.Dataset {
			gens[name]++
			return taskSmallCNNC10.dataset(s)
		}
	}
	p.dataset("a", data.ScaleTest, gen("a"))
	p.dataset("b", data.ScaleTest, gen("b")) // evicts a
	p.dataset("a", data.ScaleTest, gen("a")) // regenerates a
	if gens["a"] != 2 || gens["b"] != 1 {
		t.Fatalf("generations = %v, want a:2 b:1 (eviction must force regeneration)", gens)
	}
	if got := p.ds.Len(); got != 1 {
		t.Fatalf("capacity-1 dataset cache holds %d entries", got)
	}
	// A repeat request for the resident dataset is a pure hit.
	p.dataset("a", data.ScaleTest, gen("a"))
	if gens["a"] != 2 {
		t.Fatalf("resident dataset regenerated: %d", gens["a"])
	}
}

func TestCompileSpecResolvesAliases(t *testing.T) {
	loose := grid.Spec{
		Tasks:    []string{"resnet18-cifar10"},
		Devices:  []string{"v100", "rtx5000tc"},
		Variants: []string{"impl"},
	}
	plan, err := CompileSpec(loose)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Spec.Tasks[0] != "ResNet18 CIFAR-10" {
		t.Fatalf("task not canonicalized: %q", plan.Spec.Tasks[0])
	}
	if plan.Spec.Devices[0] != "V100" || plan.Spec.Devices[1] != "RTX5000 TC" {
		t.Fatalf("devices not canonicalized: %q", plan.Spec.Devices)
	}
	if plan.Spec.Variants[0] != "IMPL" {
		t.Fatalf("variant not canonicalized: %q", plan.Spec.Variants)
	}
	if plan.Cells() != 2 {
		t.Fatalf("cells = %d, want 2", plan.Cells())
	}
	// Canonical spelling compiles to the same identity, so result keys
	// collide across spelling variants of one grid.
	canonical := grid.Spec{
		Tasks:    []string{"ResNet18 CIFAR-10"},
		Devices:  []string{"V100", "RTX5000 TC"},
		Variants: []string{"IMPL"},
	}
	plan2, err := CompileSpec(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ID() != plan2.ID() {
		t.Fatalf("alias and canonical spellings compile to different IDs: %s vs %s", plan.ID(), plan2.ID())
	}
}

func TestCompileSpecRejectsUnknownNames(t *testing.T) {
	cases := []struct {
		spec grid.Spec
		want string
	}{
		{grid.Spec{Tasks: []string{"GPT-5"}, Devices: []string{"V100"}}, "unknown task"},
		{grid.Spec{Tasks: []string{"SmallCNN CIFAR-10"}, Devices: []string{"H100"}}, "unknown device"},
		{grid.Spec{Tasks: []string{"SmallCNN CIFAR-10"}, Devices: []string{"V100"}, Variants: []string{"CHAOS"}}, "unknown variant"},
		{grid.Spec{Tasks: []string{"SmallCNN CIFAR-10"}, Devices: []string{"V100"}, Metrics: []string{"vibes"}}, "unknown metric"},
		{grid.Spec{Devices: []string{"V100"}}, "no tasks"},
	}
	for _, c := range cases {
		_, err := CompileSpec(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("CompileSpec(%+v) err = %v, want containing %q", c.spec, err, c.want)
		}
	}
}

func TestPlanConfigAndEstimate(t *testing.T) {
	plan, err := CompileSpec(grid.Spec{
		Tasks:    []string{"SmallCNN CIFAR-10"},
		Devices:  []string{"V100"},
		Variants: []string{"IMPL"},
		Recipes:  []grid.Recipe{{Epochs: 5}},
		Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := plan.Config(Config{Scale: data.ScaleTest, Seed: 1})
	if cfg.Replicas != 2 {
		t.Fatalf("spec replicas not applied: %+v", cfg)
	}
	est := plan.Estimate(cfg)
	if est.Cells != 1 || est.ReplicasPerCell != 2 || est.TrainingRuns != 2 || est.TotalEpochs != 10 {
		t.Fatalf("estimate = %+v, want 1 cell x 2 replicas x 5 epochs", est)
	}
	// A cold estimate credits nothing: every replica is to-train.
	if est.CachedReplicas != 0 || est.TrainReplicas != 2 || est.TrainEpochs != 10 {
		t.Fatalf("cold estimate split = %+v, want 0 cached / 2 to train", est)
	}
}

// TestGridCellCounts pins the compiled grid size of every spec-registered
// artifact — the progress total a run announces.
func TestGridCellCounts(t *testing.T) {
	want := map[string]int{
		"fig1": 12, "fig9": 9, "fig10": 9,
		"fig2": 6, "fig4": 6, "fig5": 15,
		"table2": 30, "table5": 3, "fig3": 3,
	}
	for id, cells := range want {
		got, ok := GridCells(id)
		if !ok || got != cells {
			t.Errorf("GridCells(%s) = %d,%v, want %d", id, got, ok, cells)
		}
	}
	if _, ok := GridCells("table4"); ok {
		t.Error("table4 is not a grid artifact but reports cells")
	}
}

// TestRegistryWorkloadsResolve asserts registry integrity: every workload
// a training-backed experiment lists resolves to a registered task recipe,
// so `nnrand list` metadata can never drift from the task table.
func TestRegistryWorkloadsResolve(t *testing.T) {
	for _, m := range All() {
		if m.Cost == CostNone {
			continue // profiling/dataset artifacts list graphs, not recipes
		}
		if len(m.Workloads) == 0 {
			t.Errorf("%s trains (%s) but lists no workloads", m.ID, m.Cost)
		}
		for _, w := range m.Workloads {
			if _, err := taskByName(w); err != nil {
				t.Errorf("%s lists unresolvable workload %q: %v", m.ID, w, err)
			}
		}
	}
	// And the exported catalog round-trips through the resolver.
	ws := Workloads()
	if len(ws) != len(taskRegistry) {
		t.Fatalf("Workloads() lists %d recipes, registry has %d", len(ws), len(taskRegistry))
	}
	for _, w := range ws {
		task, err := taskByName(w.Alias)
		if err != nil || task.name != w.Name {
			t.Errorf("alias %q does not resolve to %q: %v", w.Alias, w.Name, err)
		}
	}
}

// TestProgressTotalsMatchCells asserts the progress contract for the
// cheap (no-training) experiments in every mode, and for spec-driven
// training grids when not -short: profiling experiments announce and
// tick per cell, training grids per replica (cells × population size),
// and every unit ticks.
func TestProgressTotalsMatchCells(t *testing.T) {
	cases := map[string]int{"fig7": 4, "fig8a": 10, "fig8b": 4}
	if !testing.Short() {
		for _, id := range []string{"fig2", "table5"} {
			cells, ok := GridCells(id)
			if !ok {
				t.Fatalf("%s is not spec-registered", id)
			}
			cases[id] = cells * testCfg().replicas()
		}
	}
	for id, want := range cases {
		id, want := id, want
		t.Run(id, func(t *testing.T) {
			rec := &progressRecorder{}
			ctx := WithProgress(context.Background(), rec.observe)
			if _, err := Run(ctx, id, testCfg()); err != nil {
				t.Fatal(err)
			}
			if rec.total != want {
				t.Fatalf("%s announced total %d, want %d units", id, rec.total, want)
			}
			if rec.max != want {
				t.Fatalf("%s ticked %d units, want %d", id, rec.max, want)
			}
		})
	}
}

// TestRunSpecSharesPopulationsWithArtifacts pins the acceptance property:
// a custom grid whose resolved recipe matches a paper cell reuses its
// population (zero retrains), and an overridden recipe trains fresh.
func TestRunSpecSharesPopulationsWithArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("training-backed experiment")
	}
	ResetCache()
	cfg := testCfg()
	ctx := context.Background()

	// Warm the exact cell fig1 trains: SmallCNN x V100 x IMPL.
	if _, _, err := population(ctx, cfg, taskSmallCNNC10, device.V100, core.Impl); err != nil {
		t.Fatal(err)
	}
	before := ReplicaTrains()

	spec := grid.Spec{
		Tasks:    []string{"smallcnn-cifar10"},
		Devices:  []string{"v100"},
		Variants: []string{"IMPL"},
	}
	res, err := RunSpec(ctx, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ReplicaTrains() - before; got != 0 {
		t.Fatalf("custom grid matching a paper cell retrained %d replicas, want 0", got)
	}
	// The result's identity is the canonical plan hash, not the hash of the
	// loose spelling — that is what makes "v100" and "V100" share one key.
	plan, err := CompileSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiment != plan.ID() {
		t.Fatalf("result experiment %q, want %q", res.Experiment, plan.ID())
	}
	if res.Experiment == spec.ID() {
		t.Fatal("loose spelling hashed identically to canonical (canonicalization not applied)")
	}
	tb := res.Tables[0]
	if len(tb.Rows) != 1 {
		t.Fatalf("grid rows = %d, want 1", len(tb.Rows))
	}
	if got := tb.Headers; got[0] != "task" || got[1] != "device" || got[2] != "variant" || got[3] != "acc(%)" {
		t.Fatalf("generic grid headers = %v", got)
	}

	// The same grid with a recipe override is a different population.
	spec.Recipes = []grid.Recipe{{LR: 0.01}}
	if _, err := RunSpec(ctx, spec, cfg); err != nil {
		t.Fatal(err)
	}
	if got, want := ReplicaTrains()-before, int64(cfg.replicas()); got != want {
		t.Fatalf("overridden recipe trained %d replicas, want %d", got, want)
	}
}

// TestCompileSpecDedupsAxes: alias and canonical spellings of one name in
// a single spec are one axis entry (one cell, one estimate, one hash) —
// and recipe labels never enter the identity.
func TestCompileSpecDedupsAxes(t *testing.T) {
	dup := grid.Spec{
		Tasks:    []string{"smallcnn-cifar10", "SmallCNN CIFAR-10"},
		Devices:  []string{"v100", "V100"},
		Variants: []string{"impl", "IMPL"},
		Metrics:  []string{"l2", "L2"},
	}
	plan, err := CompileSpec(dup)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cells() != 1 {
		t.Fatalf("duplicate spellings produced %d cells, want 1", plan.Cells())
	}
	single, err := CompileSpec(grid.Spec{
		Tasks: []string{"SmallCNN CIFAR-10"}, Devices: []string{"V100"},
		Variants: []string{"IMPL"}, Metrics: []string{"l2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ID() != single.ID() {
		t.Fatalf("deduped spec hashes %s, single-entry spec %s", plan.ID(), single.ID())
	}

	warm := grid.Spec{Tasks: []string{"SmallCNN CIFAR-10"}, Devices: []string{"V100"},
		Recipes: []grid.Recipe{{Label: "warm", LR: 0.01}}}
	cool := warm
	cool.Recipes = []grid.Recipe{{Label: "cool", LR: 0.01}}
	if warm.Hash() != cool.Hash() {
		t.Fatal("recipe label entered the hash")
	}
	hotter := warm
	hotter.Recipes = []grid.Recipe{{Label: "warm", LR: 0.02}}
	if warm.Hash() == hotter.Hash() {
		t.Fatal("recipe override did not enter the hash")
	}

	// Same-content recipes (labels aside) are one sweep cell, and the
	// estimate prices the deduped grid.
	sweep := grid.Spec{Tasks: []string{"SmallCNN CIFAR-10"}, Devices: []string{"V100"},
		Variants: []string{"IMPL"},
		Recipes:  []grid.Recipe{{Label: "a", Epochs: 5}, {Label: "b", Epochs: 5}, {Epochs: 7}}}
	sweepPlan, err := CompileSpec(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if sweepPlan.Cells() != 2 {
		t.Fatalf("duplicate-content recipes produced %d cells, want 2", sweepPlan.Cells())
	}
	if est := sweepPlan.Estimate(Config{Scale: data.ScaleTest, Replicas: 1}); est.TotalEpochs != 12 {
		t.Fatalf("deduped estimate epochs = %d, want 5+7", est.TotalEpochs)
	}
}

// TestExplicitZeroSweepCollapses: [{}] is the no-sweep grid — one
// identity, one layout.
func TestExplicitZeroSweepCollapses(t *testing.T) {
	withZero, err := CompileSpec(grid.Spec{Tasks: []string{"SmallCNN CIFAR-10"},
		Devices: []string{"V100"}, Variants: []string{"IMPL"}, Recipes: []grid.Recipe{{}}})
	if err != nil {
		t.Fatal(err)
	}
	without, err := CompileSpec(grid.Spec{Tasks: []string{"SmallCNN CIFAR-10"},
		Devices: []string{"V100"}, Variants: []string{"IMPL"}})
	if err != nil {
		t.Fatal(err)
	}
	if withZero.ID() != without.ID() {
		t.Fatalf("[{}] and omitted recipes compile to different IDs: %s vs %s", withZero.ID(), without.ID())
	}
	if len(withZero.Spec.Recipes) != 0 {
		t.Fatal("lone zero recipe kept as a sweep")
	}
}

// TestLabelOnlySweepCollapses: a label-only recipe is content-zero, so it
// must share the no-sweep grid's identity (labels never re-key results).
func TestLabelOnlySweepCollapses(t *testing.T) {
	labeled, err := CompileSpec(grid.Spec{Tasks: []string{"SmallCNN CIFAR-10"},
		Devices: []string{"V100"}, Variants: []string{"IMPL"},
		Recipes: []grid.Recipe{{Label: "paper"}}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := CompileSpec(grid.Spec{Tasks: []string{"SmallCNN CIFAR-10"},
		Devices: []string{"V100"}, Variants: []string{"IMPL"}})
	if err != nil {
		t.Fatal(err)
	}
	if labeled.ID() != plain.ID() {
		t.Fatalf("label-only sweep re-keyed the grid: %s vs %s", labeled.ID(), plain.ID())
	}
}

// FuzzCompileSpec: for any bytes, parsing and compiling a grid spec never
// panics, and a spec that compiles is a fixed point — the JSON of its
// canonical plan.Spec re-parses and re-compiles to the same ID, cell
// count and replica override. That is what lets `serve -resume` rebuild
// a journaled grid under its original result key.
func FuzzCompileSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		spec, err := grid.Parse(b)
		if err != nil {
			return
		}
		plan, err := CompileSpec(spec)
		if err != nil {
			return
		}
		canon, err := json.Marshal(plan.Spec)
		if err != nil {
			t.Fatalf("marshalling compiled spec: %v", err)
		}
		spec2, err := grid.Parse(canon)
		if err != nil {
			t.Fatalf("compiled spec %s does not re-parse: %v", canon, err)
		}
		plan2, err := CompileSpec(spec2)
		if err != nil {
			t.Fatalf("compiled spec %s does not re-compile: %v", canon, err)
		}
		if plan2.ID() != plan.ID() || plan2.Cells() != plan.Cells() || plan2.Spec.Replicas != plan.Spec.Replicas {
			t.Fatalf("recompiling %s gives %s/%d cells/r%d, want %s/%d cells/r%d", canon,
				plan2.ID(), plan2.Cells(), plan2.Spec.Replicas, plan.ID(), plan.Cells(), plan.Spec.Replicas)
		}
	})
}
