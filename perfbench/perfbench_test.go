package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // the median leaves 9 above it
		{20, 50},   // rank 10 leaves 10
		{99, 50},   // p90 is rank 90, leaving 9
		{100, 90},  // p90 leaves 10
		{199, 90},  // p95 is rank 190, leaving 9
		{200, 95},  // p95 leaves 10
		{999, 95},  // p99 is rank 990, leaving 9
		{1000, 99}, // p99 leaves 10
		{10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, unsorted
	}
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500.5 || d.TailP != 99 || d.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v, want n 1000, p50 500.5, p99 990", d)
	}
	if v, p := pctOrTail(xs[500:], 99); p != 95 || v != 475 {
		t.Errorf("pctOrTail(500 samples, 99) = %g at p%g, want 475 at p95", v, p)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "step", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 50},  // overlaps a
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120}, // spills past the parent
		{Name: "d", ID: 4, Parent: 1, Start: 15, End: 20},  // grandchild: a's, not step's
		{Name: "e", ID: 5, Parent: 0, Start: 12, End: 18},  // inside a
	}
	got := selfTimes(spans)
	want := []int64{100 - (40 + 10), 30 - 5, 20, 30, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSpanLogNilRecordsNothing(t *testing.T) {
	var l *spanLog
	id := l.begin("x", -1)
	l.end(id)
	l.truncate(id)
	if id != -1 {
		t.Fatalf("nil log returned span id %d", id)
	}
	l = newSpanLog(4)
	root := l.begin("root", -1)
	child := l.begin("child", root)
	l.end(child)
	l.end(root)
	if len(l.spans) != 2 || l.spans[1].Parent != root || l.spans[0].End < l.spans[1].End {
		t.Fatalf("spans = %+v", l.spans)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One worker, an operation due every 10ms, and the first operation
	// stalls for 60ms: the operations queued behind it were due while it
	// stalled, and their latency must include that wait even though each
	// takes no time once started.
	var first atomic.Bool
	op := func(ctx context.Context, seq int) (time.Time, bool) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(60 * time.Millisecond)
		}
		return time.Time{}, true
	}
	stop := make(chan struct{})
	time.AfterFunc(45*time.Millisecond, func() { close(stop) })
	res := openLoop{rate: 100, workers: 1}.run(context.Background(), stop, op)
	if len(res.samples) < 4 {
		t.Fatalf("only %d operations issued", len(res.samples))
	}
	for _, s := range res.samples {
		// Operation seq was due at seq*10ms and could not start before
		// the stall ended at 60ms.
		minLat := time.Duration(60-10*s.seq) * time.Millisecond
		if s.seq > 0 && s.latency < minLat-5*time.Millisecond {
			t.Errorf("operation %d: latency %v, want at least %v from its due time", s.seq, s.latency, minLat)
		}
	}
	if len(res.lag) != len(res.samples) {
		t.Errorf("%d lag readings for %d operations", len(res.lag), len(res.samples))
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(kind string, declared []struct{ Name, Unit, Better string }, printed []metricDef) {
		seen := map[string]bool{}
		for _, d := range declared {
			if !valid.MatchString(d.Name) {
				t.Errorf("%s metric %q is not a valid name", kind, d.Name)
			}
			seen[d.Name] = true
		}
		if len(declared) != len(printed) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the benchmark prints %d", len(declared), kind, len(printed))
		}
		for i, p := range printed {
			if !seen[p.name] {
				t.Errorf("%s metric %q is printed but not declared in BENCHMARK.json", kind, p.name)
				continue
			}
			if i < len(declared) && (declared[i].Name != p.name || declared[i].Unit != p.unit || declared[i].Better != p.better) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark prints %s in %s (%s is better)", kind, i, declared[i], p.name, p.unit, p.better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
	}
}

func TestBuildResultPrintsExactlyTheDeclaredMetrics(t *testing.T) {
	values := map[string]float64{"not_declared": 1}
	for _, d := range endToEnd {
		values[d.name] = 1
	}
	got, err := buildResult(values, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(endToEnd) {
		t.Errorf("untraced run prints %d metrics, want %d", len(got), len(endToEnd))
	}
	if _, err := buildResult(values, true); err == nil {
		t.Error("a traced run missing its per-layer metrics built a result")
	}
}

func TestWarmVariantsAreDistinctGrids(t *testing.T) {
	base := workloads["serve-warm"].mainGrid(1, 0)
	seen := map[string]int{}
	n := warmVariants(base)
	if n < 2000 {
		t.Fatalf("serve-warm's base grid has %d re-slices, fewer than a run needs", n)
	}
	for k := 0; k < n; k++ {
		g := warmVariant(base, k)
		plan, cfg, err := g.plan()
		if err != nil {
			t.Fatalf("variant %d: %v", k, err)
		}
		key := fmt.Sprintf("%s/r%d", plan.ID(), cfg.Replicas)
		if prev, dup := seen[key]; dup {
			t.Fatalf("variants %d and %d are the same grid %s", prev, k, key)
		}
		seen[key] = k
		if plan.ID() == mustPlanID(t, base) && g.replicas == base.replicas {
			t.Fatalf("variant %d is the base grid itself", k)
		}
		// Every re-slice is one size, so each costs the same.
		if len(g.spec.Devices) != 1 || len(g.spec.Variants) != warmShape || g.replicas != base.replicas {
			t.Fatalf("variant %d has %d devices, %d variants and %d replicas, want 1, %d and %d",
				k, len(g.spec.Devices), len(g.spec.Variants), g.replicas, warmShape, base.replicas)
		}
	}
}

func mustPlanID(t *testing.T, g gridReq) string {
	t.Helper()
	p, _, err := g.plan()
	if err != nil {
		t.Fatal(err)
	}
	return p.ID()
}
