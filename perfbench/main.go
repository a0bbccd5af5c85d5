// Command perfbench is the repository's benchmark. It hosts the real
// server in process (server.New and its Handler on a loopback listener),
// drives it over HTTP with at most one connection per CPU, checks every
// output, and prints the metrics BENCHMARK.json declares. From the
// repository root:
//
//	bash perfbench/run.sh --workload train-smallcnn --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - train-smallcnn: cold SmallCNN grids, V100 and TPUv2 × IMPL and
//     CONTROL, 2 replicas, fresh seeds per grid.
//   - train-resnet1: one cold ResNet-18 cell, V100 IMPL, 1 replica,
//     4 epochs.
//   - train-fleet: the train-smallcnn grids through a fleet coordinator
//     and two in-process workers.
//   - serve-warm: a restarted server over a ledger and store filled by
//     short-epoch grids, serving cached reads and ledger-served grids.
//
// Every workload runs an open loop of reads — result fetches, job
// status fetches and cached grid submissions — with ledger-served grids
// interleaved, at a fixed rate, each timed from when it was due. On the
// train-* workloads a closed loop of cold grids runs, each submitted when
// the previous one is done, and the open loop serves a burst after each.
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics: server-side and fleet counters from the
// same kind of run, then the training loop driven through public calls
// with a span around each layer call (checked bit-identical to
// core.RunReplica), a direct device-kernel probe and timings of the
// serving layers' public calls. Spans and a full record of each run
// (host, percentiles with sample counts, runtime deltas, generator lag)
// are written under .bench_out/. The last line of standard output is
// the result object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// workRoot and outRoot are created in the working directory: the run's
// servers keep their stores and ledgers under workRoot (removed at
// exit), and records and span logs land in outRoot.
const (
	workRoot = ".bench_work"
	outRoot  = ".bench_out"
)

// runBudget bounds a whole run, set-up and checks included.
const runBudget = 170 * time.Second

func main() { os.Exit(benchMain()) }

func benchMain() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", defaultSeed, "seed the run's inputs derive from")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %v)\n", *name, names)
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1 and --seconds a positive count")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workRoot, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &run{name: *name, w: w, seed: *seed, traced: *trace == 1, dir: dir, cat: newCatalog()}
	rec, res, err := r.execute(ctx, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(outRoot, 0o755); err == nil {
		path := filepath.Join(outRoot, fmt.Sprintf("%s-s%d-t%d.json", *name, *seed, *trace))
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
		}
	}
	fmt.Println(string(line))
	fmt.Println(encodeResult(res))
	if !res.Correct {
		for _, p := range rec.Problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		return 1
	}
	return 0
}
