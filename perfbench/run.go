package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/data"
	"repro/internal/experiments"
)

// ladderRates are the fixed open-loop rates the traced serve-warm run
// climbs; server.max_rps is the highest whose read p99 stays within
// ladderLimitMs while the generator keeps up.
var ladderRates = []float64{500, 1000, 2000, 3000}

const (
	ladderLimitMs = 5.0
	ladderStep    = 2 * time.Second
)

// rung is one ladder step's outcome.
type rung struct {
	Rate   float64 `json:"rate"`
	N      int     `json:"n"`
	P99Ms  float64 `json:"p99_ms"`
	LagMs  float64 `json:"gen_lag_p99_ms"`
	Failed int     `json:"failed"`
	Pass   bool    `json:"pass"`
}

// record is the full account of one run, written beside its result.
type record struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Host      hostRecord         `json:"host"`
	ElapsedS  float64            `json:"elapsed_s"`
	SetupS    []float64          `json:"setup_s"`
	GridS     dist               `json:"grid_s"`
	ReadMs    dist               `json:"read_ms"`
	ReadRate  float64            `json:"read_rate"`
	WindowP99 []float64          `json:"read_p99_ms_by_window"`
	P99As     float64            `json:"read_p99_reported_percentile"`
	WarmMs    dist               `json:"warm_grid_ms"`
	GenLagMs  dist               `json:"gen_lag_ms"`
	Runtime   runtimeSnap        `json:"runtime_delta"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	Digests   [][2]string        `json:"digests,omitempty"`
	Ladder    []rung             `json:"ladder,omitempty"`
	Values    map[string]float64 `json:"values"`
}

// execute sets up, measures, checks and reduces one run.
func (r *run) execute(ctx context.Context, seconds time.Duration) (record, result, error) {
	rec := record{Workload: r.name, Traced: r.traced, Host: describeHost(r.seed), ReadRate: readRate}
	r.trainN = data.CIFAR10Like(benchScaleValue).Train.N()

	var fixture []gridReq
	var d dirs
	var err error
	if r.w.serve {
		if d, err = r.newDirs("fixture"); err != nil {
			return rec, result{}, err
		}
		if fixture, err = r.buildFixture(ctx, d); err != nil {
			return rec, result{}, err
		}
		r.warmBases = fixture
	}
	n := setups
	if r.traced {
		n = 1
	}
	var h *host
	var c *client
	for k := 0; k < n; k++ {
		if !r.w.serve {
			if d, err = r.newDirs(fmt.Sprintf("setup%d", k)); err != nil {
				return rec, result{}, err
			}
		}
		flushDisk()
		t0 := time.Now()
		if h, c, err = r.setup(ctx, d, k, fixture); err != nil {
			return rec, result{}, err
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
		if k < n-1 {
			c.close()
			h.close()
			if !r.w.serve {
				if err := os.RemoveAll(filepath.Dir(d.store)); err != nil {
					return rec, result{}, err
				}
			}
		}
	}
	flushDisk()
	m, err := r.measure(ctx, h, c, seconds)
	if err == nil && r.traced && r.w.serve {
		rec.Ladder = r.ladder(ctx, c)
	}
	c.close()
	h.close()
	if err != nil {
		return rec, result{}, err
	}

	// Checks. Any failure fails the run; none counts as a slow sample.
	var churn float64
	for i, mg := range r.mains {
		churn += r.checkPaper(mg.result, mg.g.replicas)
		if i == 0 {
			r.checkDigest("grid-0", mg.result)
		}
	}
	if r.w.replicas >= 2 && len(r.mains) > 0 && churn == 0 {
		r.problem("V100 IMPL: want nonzero churn in the run's grids, got 0 in all %d", len(r.mains))
	}
	if !r.w.serve && len(r.mains) == 0 {
		r.problem("no grid completed in the measured window")
	}
	if r.w.fleet && len(r.mains) > 0 {
		// The fleet's bytes must equal single-node training's.
		plan, cfg, err := r.mains[0].g.plan()
		if err != nil {
			return rec, result{}, err
		}
		ref, err := experiments.NewPopulations(0).RunPlan(ctx, plan, cfg)
		if err != nil {
			return rec, result{}, err
		}
		if got, want := tablesDigest(r.mains[0].result), tablesDigest(ref); got != want {
			r.problem("fleet grid 0: tables digest %s, single-node training gives %s", got, want)
		}
	}
	if err := r.verifyWarm(ctx, d.ledger); err != nil {
		return rec, result{}, err
	}

	// Reduction.
	values := map[string]float64{}
	var reads, warm, windowP99, lags []float64
	rec.P99As = 99
	for _, lr := range m.windows {
		rd, wm := r.latencies(lr)
		reads, warm = append(reads, rd...), append(warm, wm...)
		p99, as := pctOrTail(rd, 99)
		windowP99 = append(windowP99, p99)
		rec.P99As = math.Min(rec.P99As, as)
		for _, l := range lr.lag {
			lags = append(lags, ms(l))
		}
	}
	var gridS, imgRate []float64
	if r.w.serve {
		for _, sg := range m.stored {
			gridS = append(gridS, sg.dur.Seconds())
			imgRate = append(imgRate, sg.img/sg.dur.Seconds())
		}
	} else {
		for _, mg := range r.mains {
			gridS = append(gridS, mg.dur.Seconds())
			imgRate = append(imgRate, mg.img/mg.dur.Seconds())
		}
	}
	rec.ElapsedS = m.elapsed.Seconds()
	rec.WindowP99 = windowP99
	rec.GridS, rec.ReadMs, rec.WarmMs, rec.GenLagMs = summarize(gridS), summarize(reads), summarize(warm), summarize(lags)
	rec.Runtime = m.before.delta(m.after)
	values["setup_s"] = median(rec.SetupS)
	values["grid_s"] = median(gridS)
	values["train_img_per_s"] = median(imgRate)
	values["read_p50_ms"] = finite(median(reads))
	values["bench.read_p99_ms"] = finite(median(windowP99))
	values["bench.warm_grid_p50_ms"] = finite(median(warm))
	// The peak of one cold grid (or serving window) depends on where the
	// collections fall in it; the median over the run's grids does not
	// hinge on one of them.
	values["peak_heap_mb"] = median(m.heapPeaks) / 1e6

	if r.traced {
		if err := r.layerMetrics(ctx, m, d, rec.Ladder, lags, values); err != nil {
			return rec, result{}, err
		}
	}
	rec.Values = values
	rec.Attempted, rec.Failed = r.attempted.Load(), r.failed.Load()
	rec.Errors, rec.Problems, rec.Digests = r.errs, r.problems, r.digests
	for k, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return rec, result{}, fmt.Errorf("metric %s is %v", k, v)
		}
	}
	metrics, err := buildResult(values, r.traced)
	if err != nil {
		return rec, result{}, err
	}
	return rec, result{Correct: len(r.problems) == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: metrics}, nil
}

// ladder climbs ladderRates with reads only and returns each rung.
func (r *run) ladder(ctx context.Context, c *client) []rung {
	op := r.op(c)
	readsOnly := func(ctx context.Context, seq int) (time.Time, bool) {
		if kindOf(r.seed, seq) == opWarmGrid {
			seq++
		}
		return op(ctx, seq)
	}
	var out []rung
	for _, rate := range ladderRates {
		stop := make(chan struct{})
		timer := time.AfterFunc(ladderStep, func() { close(stop) })
		lr := openLoop{rate: rate, workers: 4 * maxConns()}.run(ctx, stop, readsOnly)
		timer.Stop()
		var lat, lag []float64
		g := rung{Rate: rate, N: len(lr.samples)}
		for _, s := range lr.samples {
			v := ms(s.latency)
			if !s.ok {
				g.Failed++
				v = math.Inf(1)
			}
			lat = append(lat, v)
		}
		for _, l := range lr.lag {
			lag = append(lag, ms(l))
		}
		p99, _ := pctOrTail(lat, 99)
		lagP99, _ := pctOrTail(lag, 99)
		g.P99Ms, g.LagMs = finite(p99), lagP99
		g.Pass = g.Failed == 0 && p99 <= ladderLimitMs && lagP99 <= ladderLimitMs
		out = append(out, g)
		if ctx.Err() != nil {
			break
		}
	}
	return out
}

// layerMetrics fills the per-layer metrics of a traced run: counters
// from the measured phase, then the layer probes, which run after the
// server has closed.
func (r *run) layerMetrics(ctx context.Context, m measured, d dirs, ladder []rung, lags []float64, v map[string]float64) error {
	for _, def := range perLayer {
		if _, ok := v[def.name]; !ok {
			v[def.name] = 0 // a layer the workload bypasses reads 0
		}
	}
	rt := m.before.delta(m.after)
	// On train-* the share is taken over the cold grids only, so the
	// serving bursts between them do not dilute it.
	if r.w.serve {
		v["sched.cpu_util"] = rt.cpuUtil()
	} else {
		v["sched.cpu_util"] = m.busy.cpuUtil()
	}
	v["go.gc_cycles"] = float64(rt.GCCycles)
	v["go.alloc_mb"] = float64(rt.AllocBytes) / 1e6
	v["bench.gen_lag_p99_ms"], _ = pctOrTail(lags, 99)
	for _, rt := range serverRoutes {
		for _, s := range m.metrics.Routes {
			if s.Route == rt.label {
				v["server."+rt.short+".p50_ms"] = s.Latency.P50Millis
				v["server."+rt.short+".p99_ms"] = s.Latency.P99Millis
			}
		}
	}
	v["server.rejected"] = float64(m.metrics.Requests.Rejected)
	v["server.errors_5xx"] = float64(m.metrics.Requests.Errors5xx)
	for _, g := range ladder {
		if g.Pass {
			v["server.max_rps"] = g.Rate
		}
	}
	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	v["ledger.hit_ratio"] = ratio(m.stats.Ledger.Hits, m.stats.Ledger.Misses)
	v["jobs.store_hit_ratio"] = ratio(m.stats.Store.Hits, m.stats.Store.Misses)
	if r.w.fleet {
		var upMs, upKB, leaseMs []float64
		for _, wc := range m.work {
			v["fleet."+wc.kind+".calls"]++
			switch wc.kind {
			case "complete":
				upMs = append(upMs, ms(wc.dur))
				upKB = append(upKB, float64(wc.upBytes)/1024)
			case "lease":
				leaseMs = append(leaseMs, ms(wc.dur))
			}
		}
		v["fleet.upload_ms"], v["fleet.upload_kb"], v["fleet.lease_wait_ms"] = median(upMs), median(upKB), median(leaseMs)
		if f := m.stats.Fleet; f != nil {
			v["fleet.duplicates"], v["fleet.expired"] = float64(f.DuplicateUploads), float64(f.ExpiredLeases)
		}
	}
	if !r.w.serve {
		u, err := unitFor(ctx, r.w.mainGrid(r.seed, 0))
		if err != nil {
			return err
		}
		spans, geoms, err := traceTraining(ctx, u, v)
		if err != nil {
			r.problem("traced training: %v", err)
		} else {
			if err := os.MkdirAll(outRoot, 0o755); err != nil {
				return err
			}
			log := &spanLog{spans: spans}
			if err := log.writeJSONL(filepath.Join(outRoot, fmt.Sprintf("%s-s%d-spans.jsonl", r.name, r.seed))); err != nil {
				return err
			}
			if err := kernelProbe(geoms, v); err != nil {
				r.problem("kernel probe: %v", err)
			}
		}
	}
	var g gridReq
	switch {
	case len(r.mains) > 0:
		g = r.mains[0].g
	case len(r.warmBases) > 0:
		g = r.warmBases[0]
	}
	if r.sample == nil {
		return fmt.Errorf("no grid completed, so the serving layers have nothing to probe")
	}
	return servingProbe(ctx, d.store, d.ledger, r.dir, g, r.sample, v)
}
