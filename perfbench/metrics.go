package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// declares the same names and units (TestMetricsMatchBenchmarkJSON pins
// the two together).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the server sees, printed by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"grid_s", "s", "lower"},
	{"train_img_per_s", "1/s", "higher"},
	{"read_p50_ms", "ms", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// serverRoutes maps the server's telemetry route labels onto the short
// names the server.<route> metrics use.
var serverRoutes = []struct{ label, short string }{
	{"POST /v1/grid", "grid"},
	{"GET /v1/jobs/{id}", "job"},
	{"GET /v1/results/{key}", "result"},
	{"POST /v1/work/lease", "lease"},
	{"POST /v1/work/{id}/heartbeat", "heartbeat"},
	{"POST /v1/work/{id}/complete", "complete"},
}

// nnKinds are the layer kinds the nn.* metrics aggregate.
var nnKinds = []string{"conv", "bn", "relu", "pool", "dense", "residual"}

// probeKernels are the device kernels the kernel probe times.
var probeKernels = []string{"im2col_fused", "im2col_materialized", "col2im", "gemm_serial", "gemm_sharded"}

// perLayer are the metrics of single layers, printed by every traced run
// of every workload (0 where the workload bypasses the layer).
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(name, unit string) { out = append(out, metricDef{name, unit, "lower"}) }
	higher := func(name, unit string) { out = append(out, metricDef{name, unit, "higher"}) }
	add("data.next_ms", "ms")
	add("data.wait_share", "ratio")
	for _, k := range nnKinds {
		add("nn."+k+".fwd_ms", "ms")
		add("nn."+k+".bwd_ms", "ms")
	}
	add("nn.loss_ms", "ms")
	add("opt.sgd_ms", "ms")
	add("tensor.ws_reset_ms", "ms")
	add("device.kernels_per_step", "count")
	add("device.gemm_gflop_per_step", "GFLOP")
	for _, k := range probeKernels {
		add("device."+k+"_ms.det", "ms")
		add("device."+k+"_ms.default", "ms")
	}
	higher("device.gemm_gflops", "GFLOP/s")
	add("core.step_p50_ms", "ms")
	add("core.step_tail_ms", "ms")
	add("core.predict_ms", "ms")
	add("core.allocs_per_step", "count")
	add("core.unaccounted_pct", "%")
	higher("sched.cpu_util", "ratio")
	for _, k := range []string{"compile", "estimate", "stability", "render"} {
		add("experiments."+k+"_ms", "ms")
	}
	add("ledger.open_ms", "ms")
	add("ledger.get_disk_ms", "ms")
	add("ledger.get_mem_us", "us")
	add("ledger.put_ms", "ms")
	higher("ledger.hit_ratio", "ratio")
	add("checkpoint.encode_ms", "ms")
	add("checkpoint.decode_ms", "ms")
	add("checkpoint.record_kb", "KiB")
	add("jobs.store_open_ms", "ms")
	higher("jobs.store_hit_ratio", "ratio")
	add("jobs.submit_ms", "ms")
	for _, r := range serverRoutes {
		add("server."+r.short+".p50_ms", "ms")
		add("server."+r.short+".p99_ms", "ms")
	}
	add("server.rejected", "count")
	add("server.errors_5xx", "count")
	higher("server.max_rps", "1/s")
	for _, k := range []string{"lease", "heartbeat", "complete"} {
		add("fleet."+k+".calls", "count")
	}
	add("fleet.upload_ms", "ms")
	add("fleet.upload_kb", "KiB")
	add("fleet.lease_wait_ms", "ms")
	add("fleet.duplicates", "count")
	add("fleet.expired", "count")
	add("go.gc_cycles", "count")
	add("go.alloc_mb", "MB")
	add("bench.trace_overhead_pct", "%")
	add("bench.gen_lag_p99_ms", "ms")
	add("bench.read_p99_ms", "ms")
	add("bench.warm_grid_p50_ms", "ms")
	return out
}()

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metrics one run prints — every end-to-end
// metric for an untraced run, every per-layer metric for a traced one —
// from the values it measured. A declared metric the run did not
// measure is a bug in the benchmark, reported as an error.
func buildResult(values map[string]float64, traced bool) (map[string]metricValue, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}

// encodeResult renders the result line.
func encodeResult(r result) string {
	b, err := json.Marshal(r)
	if err != nil {
		// result holds only strings, numbers and bools.
		panic(err)
	}
	return string(b)
}
