package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/ledger"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// probeReps is how many times a probe repeats a call; probes report the
// median.
const probeReps = 9

// medianTime runs fn probeReps times and returns the median duration.
func medianTime(fn func()) time.Duration {
	ds := make([]float64, probeReps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// kernelProbe calls the device kernels directly on the model's
// convolution shapes, in both device modes: the fused im2col GEMM, the
// materialized im2col followed by MatMul, Col2Im, and MatMul with
// intra-kernel sharding off and at its default threshold. Each metric is
// the median time of each call summed over every convolution of the
// model — one step's worth of forward convolution kernels. It also checks that the deterministic mode's fused and
// materialized paths, and its serial and sharded GEMMs, agree bit for
// bit. Sharding is process-wide, so nothing else may run meanwhile.
func kernelProbe(geoms []tensor.ConvGeom, out map[string]float64) error {
	defer device.SetIntraOpThreshold(0)
	var flop float64
	count := map[tensor.ConvGeom]int{}
	var unique []tensor.ConvGeom
	for _, g := range geoms {
		flop += 2 * float64(g.OutC) * float64(g.ColRows()) * float64(g.ColCols())
		if count[g] == 0 {
			unique = append(unique, g)
		}
		count[g]++
	}
	for _, m := range []struct {
		mode device.Mode
		tag  string
	}{{device.Deterministic, "det"}, {device.Default, "default"}} {
		dev := device.New(device.V100, m.mode, rng.New(1).Split("kernel-probe"))
		sum := map[string]time.Duration{}
		for gi, g := range unique {
			times := func(fn func()) time.Duration { return medianTime(fn) * time.Duration(count[g]) }
			x := tensor.New(g.Batch, g.InC, g.InH, g.InW)
			fill(x.Data(), uint64(gi))
			w := tensor.New(g.OutC, g.ColRows())
			fill(w.Data(), uint64(gi)+101)
			col := tensor.New(g.ColRows(), g.ColCols())
			img := tensor.New(g.Batch, g.InC, g.InH, g.InW)

			device.SetIntraOpThreshold(-1)
			var fused, mat, serial, sharded *tensor.Tensor
			sum["im2col_fused"] += times(func() { fused = dev.MatMulIm2Col(w, x, g) })
			sum["im2col_materialized"] += times(func() {
				tensor.Im2Col(x, g, col)
				mat = dev.MatMul(w, col, false, false)
			})
			sum["col2im"] += times(func() {
				img.Zero()
				dev.Col2Im(col, g, img)
			})
			sum["gemm_serial"] += times(func() { serial = dev.MatMul(w, col, false, false) })
			device.SetIntraOpThreshold(0)
			sum["gemm_sharded"] += times(func() { sharded = dev.MatMul(w, col, false, false) })
			if m.mode == device.Deterministic {
				if !tensor.Equal(fused, mat) {
					return fmt.Errorf("fused and materialized im2col GEMMs differ on %+v", g)
				}
				if !tensor.Equal(serial, sharded) {
					return fmt.Errorf("serial and sharded GEMMs differ on %+v", g)
				}
			}
		}
		for _, k := range probeKernels {
			out["device."+k+"_ms."+m.tag] = float64(sum[k]) / 1e6
		}
		if m.mode == device.Deterministic && sum["gemm_sharded"] > 0 {
			out["device.gemm_gflops"] = flop / 1e9 / sum["gemm_sharded"].Seconds()
		}
	}
	return nil
}

// fill writes reproducible values in [-1, 1) into xs.
func fill(xs []float32, seed uint64) {
	s := seed*0x9E3779B97F4A7C15 + 1
	for i := range xs {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		xs[i] = float32(int64(s>>40)-(1<<23)) / (1 << 23)
	}
}

// servingProbe times the serving layers' public calls over the run's own
// store and ledger directories, after the server has closed them:
// opening the ledger and the result store, ledger reads from disk and
// from memory, ledger writes, the checkpoint codec, grid compilation,
// pricing, stability summaries, result rendering and job submission.
// scratch is a directory the probe may write to.
func servingProbe(ctx context.Context, storeDir, ledgerDir, scratch string, g gridReq, sample *report.Result, out map[string]float64) error {
	out["ledger.open_ms"] = ms(medianTime(func() { _, _ = ledger.Open(ledgerDir, 1<<20) }))
	led, err := ledger.Open(ledgerDir, 1<<20)
	if err != nil {
		return err
	}
	infos := led.Entries()
	if len(infos) == 0 {
		return fmt.Errorf("ledger %s holds no replicas", ledgerDir)
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Cell != infos[j].Cell {
			return infos[i].Cell < infos[j].Cell
		}
		return infos[i].Replica < infos[j].Replica
	})
	var disk, mem []float64
	results := make([]*core.RunResult, len(infos))
	for i, in := range infos {
		t0 := time.Now()
		r, ok := led.Get(in.Cell, in.Replica)
		disk = append(disk, ms(time.Since(t0)))
		if !ok {
			return fmt.Errorf("ledger record %s#%d does not load", in.Cell, in.Replica)
		}
		results[i] = r
	}
	for _, in := range infos {
		t0 := time.Now()
		led.Get(in.Cell, in.Replica)
		mem = append(mem, float64(time.Since(t0))/1e3)
	}
	out["ledger.get_disk_ms"] = median(disk)
	out["ledger.get_mem_us"] = median(mem)

	putDir := filepath.Join(scratch, "ledger-put")
	put, err := ledger.Open(putDir, 1<<20)
	if err != nil {
		return err
	}
	var puts, enc, dec, kb []float64
	for i, in := range infos {
		t0 := time.Now()
		if err := put.Put(in.Cell, in.Replica, results[i]); err != nil {
			return err
		}
		puts = append(puts, ms(time.Since(t0)))
		var buf bytes.Buffer
		t0 = time.Now()
		if err := checkpoint.EncodeResult(&buf, in.Cell, results[i]); err != nil {
			return err
		}
		enc = append(enc, ms(time.Since(t0)))
		kb = append(kb, float64(buf.Len())/1024)
		t0 = time.Now()
		cell, back, err := checkpoint.DecodeResult(bytes.NewReader(buf.Bytes()))
		dec = append(dec, ms(time.Since(t0)))
		if err != nil || cell != in.Cell || sameReplica(back, results[i]) != "" {
			return fmt.Errorf("checkpoint round trip of %s#%d does not reproduce the replica (%v)", in.Cell, in.Replica, err)
		}
	}
	if err := os.RemoveAll(putDir); err != nil {
		return err
	}
	out["ledger.put_ms"] = median(puts)
	out["checkpoint.encode_ms"] = median(enc)
	out["checkpoint.decode_ms"] = median(dec)
	out["checkpoint.record_kb"] = median(kb)

	plan, cfg, err := g.plan()
	if err != nil {
		return err
	}
	out["experiments.compile_ms"] = ms(medianTime(func() { _, _ = experiments.CompileSpec(g.spec) }))
	pops := experiments.NewPopulations(0)
	pops.SetLedger(led)
	out["experiments.estimate_ms"] = ms(medianTime(func() { pops.Estimate(plan, cfg) }))
	// One population per cell, as the engine summarizes it.
	ds := data.CIFAR10Like(benchScaleValue)
	var pop []*core.RunResult
	var stab []float64
	flush := func() {
		if len(pop) > 0 {
			p := pop
			stab = append(stab, ms(medianTime(func() { core.Summarize(p, ds.Test.Y, ds.Classes) })))
		}
		pop = nil
	}
	for i, in := range infos {
		if i > 0 && in.Cell != infos[i-1].Cell {
			flush()
		}
		pop = append(pop, results[i])
	}
	flush()
	out["experiments.stability_ms"] = median(stab)
	out["experiments.render_ms"] = ms(medianTime(func() {
		var buf bytes.Buffer
		_ = sample.RenderJSON(&buf)
		_ = sample.RenderText(&buf)
	}))

	out["jobs.store_open_ms"] = ms(medianTime(func() { _, _ = jobs.Open(storeDir, 1<<20) }))
	store, err := jobs.Open("", 0)
	if err != nil {
		return err
	}
	eng := jobs.NewEngine(jobs.Options{Store: store, Workers: 1})
	defer eng.Close()
	var submits []float64
	for i := 0; i < 4*probeReps; i++ {
		t0 := time.Now()
		job, err := eng.SubmitTask("probe", fmt.Sprintf("probe-%d", i), cfg, nil, func(context.Context) (*report.Result, error) {
			return sample, nil
		})
		submits = append(submits, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		select {
		case <-job.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	out["jobs.submit_ms"] = median(submits)
	return nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
