// Command nnrand runs the reproduction experiments for "Randomness in
// Neural Network Training: Characterizing the Impact of Tooling"
// (MLSys 2022). Each sub-command regenerates one table or figure of the
// paper on the simulated accelerator stack.
//
// Usage:
//
//	nnrand [flags] <experiment> [<experiment>...]
//	nnrand [flags] all
//	nnrand list
//	nnrand devices
//	nnrand workloads
//	nnrand grid   [-spec FILE | -tasks T,... -devices D,...] [flags]
//	nnrand serve  [-addr :8080] [-cache N] [-store DIR] [-ledger DIR] [-jobs N] [-queue N]
//	              [-resume] [-job-timeout DUR] [-drain DUR] [-fleet] [-lease-ttl DUR]
//	              [-max-train-epochs N] [-rate N] [-burst N] [-request-log FILE]
//	nnrand worker [-join URL] [-workers N] [-name NAME] [-batch N]
//	nnrand loadtest [-addr URL] [-clients 1,4,16] [-duration DUR | -requests N]
//	              [-mix G:J:R] [-seed N] [-spec FILE] [-out FILE]
//	nnrand ledger -dir DIR list
//	nnrand ledger -dir DIR gc -keep N
//	nnrand submit [-addr URL] [-scale S] [-replicas N] [-seed N] <experiment>...
//	nnrand status [-addr URL] <job-id>...
//	nnrand wait   [-addr URL] [-poll DUR] [-tsv|-json] <job-id>...
//	nnrand cancel [-addr URL] <job-id>...
//
// Flags (accepted before or after the experiment names):
//
//	-scale    test|quick|full   workload scale (default quick)
//	-replicas N                 replicas per variant (default: scale-dependent)
//	-seed     N                 base seed for all seed policies
//	-workers  N                 worker pool size (default: GOMAXPROCS)
//	-tsv                        emit tab-separated values instead of tables
//	-json                       emit a JSON array of typed results
//
// `grid` composes and runs a custom experiment: declare the grid either
// as a JSON spec file (-spec, "-" for stdin; see internal/grid) or
// inline via -tasks/-devices/-variants/-metrics comma lists, then run it
// locally, print only its cost estimate (-estimate), or submit it to a
// running server (-submit -addr URL). `devices` and `workloads` list the
// catalogs grid specs name.
//
// `serve` starts the embeddable HTTP/JSON service (see internal/server
// and docs/api.md); with -store DIR completed results persist across
// restarts, and with -ledger DIR every trained replica does too, so a
// restarted server trains only replicas it has never seen (grid and
// serve share the flag: `nnrand grid -ledger DIR` warm-starts local runs
// from the same directory, and -estimate then reports the cache credit).
// With -fleet the server trains nothing itself: replica work is leased
// to `nnrand worker` processes that join over HTTP, train units with the
// same deterministic code, and upload CRC-verified results — capacity
// scales with worker count and results stay bit-identical to single-node
// runs. `worker` joins a fleet coordinator and runs the pull → train →
// upload loop until interrupted.
// `serve` also prices and polices admission: -max-train-epochs rejects
// submissions whose estimated fresh training exceeds the budget (HTTP
// 429 with the estimate echoed), -rate/-burst token-buckets each client,
// and -request-log streams one JSON line per request; GET /v1/metrics
// exposes per-route counters and latency quantiles. `loadtest` replays a
// seeded grid/job/result workload against a running server at several
// concurrency levels and writes the BENCH_server.json benchmark report
// (see internal/loadtest).
// `ledger` inspects a replica ledger directory: `list` tables its
// records, `gc -keep N` evicts the least recently used beyond N.
// `submit`, `status`, `wait` and `cancel` are thin clients of a running
// server's job API: submit returns immediately with job IDs, status
// polls progress, wait blocks until completion and renders the result,
// cancel aborts queued or running jobs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/grid"
	"repro/internal/jobs"
	"repro/internal/ledger"
	"repro/internal/loadtest"
	"repro/internal/recdir"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "nnrand: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nnrand", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "quick", "workload scale: test, quick or full")
	replicas := fs.Int("replicas", 0, "replicas per variant (0 = scale default)")
	seed := fs.Uint64("seed", 20220622, "base seed for all seed policies")
	workers := fs.Int("workers", 0, "worker pool size for replica/grid parallelism (0 = GOMAXPROCS)")
	tsv := fs.Bool("tsv", false, "emit tab-separated values")
	jsonOut := fs.Bool("json", false, "emit a JSON array of typed results")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: nnrand [flags] <experiment>... | all | list | devices | workloads | grid | serve\n\nexperiments: %v\n\nflags:\n", experiments.IDs())
		fs.PrintDefaults()
	}
	// Accept flags before and after positional arguments (`nnrand -json
	// table2 -scale test` works): re-parse after each positional run. The
	// serve/submit/status/wait/cancel sub-commands own everything after
	// their name.
	var ids []string
	var subArgs []string
	for {
		if err := fs.Parse(args); err != nil {
			return err
		}
		args = fs.Args()
		if len(args) == 0 {
			break
		}
		if len(ids) == 0 && isSubcommand(args[0]) {
			// The client sub-commands own their flags; globals given before
			// the name would be parsed and then silently ignored, so refuse
			// them instead of running with defaults the user didn't ask for.
			// (serve keeps the historical behavior: a leading -workers caps
			// its in-process pool.)
			if args[0] != "serve" && fs.NFlag() > 0 {
				return fmt.Errorf("%[1]s: flags must follow the sub-command name, e.g. `nnrand %[1]s -addr ...`", args[0])
			}
			ids, subArgs = []string{args[0]}, args[1:]
			break
		}
		ids = append(ids, args[0])
		args = args[1:]
	}
	if len(ids) == 0 {
		fs.Usage()
		return fmt.Errorf("no experiment given")
	}

	scale, err := data.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	sched.SetWorkers(*workers)
	cfg := experiments.Config{Scale: scale, Replicas: *replicas, Seed: *seed}

	switch ids[0] {
	case "serve":
		return serveCmd(subArgs)
	case "worker":
		return workerCmd(subArgs)
	case "grid":
		return gridCmd(subArgs)
	case "ledger":
		return ledgerCmd(subArgs)
	case "submit":
		return submitCmd(subArgs)
	case "status":
		return statusCmd(subArgs)
	case "wait":
		return waitCmd(subArgs)
	case "cancel":
		return cancelCmd(subArgs)
	case "loadtest":
		return loadtestCmd(subArgs)
	}
	if len(ids) == 1 && ids[0] == "list" {
		return list(os.Stdout)
	}
	if len(ids) == 1 && ids[0] == "devices" {
		return listDevices(os.Stdout)
	}
	if len(ids) == 1 && ids[0] == "workloads" {
		return listWorkloads(os.Stdout)
	}
	// Expand `all` wherever it appears, then run each experiment at most
	// once per invocation, keeping first-occurrence order (`nnrand fig1
	// fig1` and `nnrand all fig1` collapse).
	ids = dedup(expandAll(ids, experiments.IDs()))

	// Validate every ID up front so a typo at the end of the list fails
	// before hours of training, not after.
	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		if runners[i], err = experiments.Get(id); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var results []*report.Result
	for i, id := range ids {
		start := time.Now()
		res, err := runners[i](ctx, cfg)
		if err != nil {
			// In JSON mode completed experiments have produced no output
			// yet; render them before surfacing the error so an interrupt
			// or late failure never discards hours of finished training.
			if *jsonOut && len(results) > 0 {
				if rerr := report.RenderJSONResults(os.Stdout, results); rerr != nil {
					return fmt.Errorf("%w (and rendering completed results failed: %v)", err, rerr)
				}
			}
			return err
		}
		results = append(results, res)
		switch {
		case *jsonOut:
			// Rendered once, as one array, after every experiment finishes.
		case *tsv:
			if err := res.RenderTSV(os.Stdout); err != nil {
				return err
			}
		default:
			if err := res.RenderText(os.Stdout); err != nil {
				return err
			}
		}
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "[%s: %.1fs]\n", id, time.Since(start).Seconds())
		}
	}
	if *jsonOut {
		return report.RenderJSONResults(os.Stdout, results)
	}
	return nil
}

// expandAll substitutes every occurrence of the `all` pseudo-ID with the
// full experiment list; dedup then collapses the overlap.
func expandAll(ids, all []string) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if id == "all" {
			out = append(out, all...)
		} else {
			out = append(out, id)
		}
	}
	return out
}

// dedup removes repeated experiment IDs, preserving first-occurrence order.
func dedup(ids []string) []string {
	seen := make(map[string]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// list prints the registry with its metadata: ID, artifact kind, relative
// cost and title.
func list(w io.Writer) error {
	tb := report.New("", "id", "artifact", "cost", "title")
	for _, m := range experiments.All() {
		tb.AddStrings(m.ID, string(m.Artifact), m.Cost, m.Title)
	}
	return tb.Render(w)
}

// listDevices prints the simulated accelerator catalog with the aliases
// grid specs accept.
func listDevices(w io.Writer) error {
	tb := report.New("", "name", "alias", "arch", "cuda cores", "notes")
	for _, d := range device.Describe() {
		var notes []string
		if d.TensorCores {
			notes = append(notes, "tensor cores")
		}
		if d.Systolic {
			notes = append(notes, "systolic")
		}
		if d.Deterministic {
			notes = append(notes, "deterministic")
		}
		cores := ""
		if d.CUDACores > 0 {
			cores = fmt.Sprintf("%d", d.CUDACores)
		}
		tb.AddStrings(d.Name, d.Alias, d.Arch, cores, strings.Join(notes, ", "))
	}
	return tb.Render(w)
}

// listWorkloads prints the training-recipe catalog grid specs name.
func listWorkloads(w io.Writer) error {
	tb := report.New("", "name", "alias", "epochs (test/quick/full)", "batch", "lr", "augment")
	for _, t := range experiments.Workloads() {
		tb.AddStrings(t.Name, t.Alias,
			fmt.Sprintf("%d/%d/%d", t.Epochs[0], t.Epochs[1], t.Epochs[2]),
			fmt.Sprintf("%d", t.Batch),
			fmt.Sprintf("%g", t.LR),
			t.Augment)
	}
	return tb.Render(w)
}

// gridCmd composes a custom grid spec from a JSON file or inline flags
// and runs it locally (default), prints its cost estimate (-estimate), or
// submits it to a running server (-submit).
func gridCmd(args []string) error {
	fs := flag.NewFlagSet("nnrand grid", flag.ContinueOnError)
	specFile := fs.String("spec", "", "JSON grid spec file ('-' = stdin); overrides the inline axis flags")
	tasks := fs.String("tasks", "", "comma-separated workload names (see `nnrand workloads`)")
	devices := fs.String("devices", "", "comma-separated device names (see `nnrand devices`)")
	variants := fs.String("variants", "", "comma-separated noise variants (default ALGO+IMPL,ALGO,IMPL)")
	metrics := fs.String("metrics", "", "comma-separated metric columns (default acc,stddev_acc,churn,l2)")
	title := fs.String("title", "", "rendered table title")
	scaleFlag := fs.String("scale", "quick", "workload scale: test, quick or full")
	replicas := fs.Int("replicas", 0, "replicas per variant (0 = scale default)")
	seed := fs.Uint64("seed", 20220622, "base seed for all seed policies")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	estimate := fs.Bool("estimate", false, "print the cost estimate and exit without training")
	ledgerDir := fs.String("ledger", "", "replica ledger directory: warm-start local runs from (and persist trained replicas to) disk")
	submit := fs.Bool("submit", false, "submit to a running server instead of running locally")
	addr := fs.String("addr", "http://localhost:8080", "server base URL (with -submit)")
	tsv := fs.Bool("tsv", false, "emit tab-separated values")
	jsonOut := fs.Bool("json", false, "emit the typed result as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("grid: unexpected argument %q (the grid is declared via flags or -spec)", fs.Arg(0))
	}

	var spec grid.Spec
	if *specFile != "" {
		var raw []byte
		var err error
		if *specFile == "-" {
			raw, err = io.ReadAll(os.Stdin)
		} else {
			raw, err = os.ReadFile(*specFile)
		}
		if err != nil {
			return err
		}
		if spec, err = grid.Parse(raw); err != nil {
			return err
		}
	} else {
		spec = grid.Spec{
			Tasks:    splitList(*tasks),
			Devices:  splitList(*devices),
			Variants: splitList(*variants),
			Metrics:  splitList(*metrics),
		}
	}
	if *title != "" {
		spec.Title = *title
	}

	// Compile up front: a typo'd name fails here, before any training (and
	// before a server round-trip).
	plan, err := experiments.CompileSpec(spec)
	if err != nil {
		return err
	}
	scale, err := data.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	cfg := plan.Config(experiments.Config{Scale: scale, Replicas: *replicas, Seed: *seed})
	pops := experiments.DefaultPopulations()
	if *ledgerDir != "" {
		led, err := ledger.Open(*ledgerDir, 0)
		if err != nil {
			return err
		}
		pops.SetLedger(led)
	}
	est := pops.Estimate(plan, cfg)
	fmt.Fprintf(os.Stderr, "nnrand: grid %s: %d cells x %d replicas = %d training runs (%d total epochs)\n",
		plan.ID(), est.Cells, est.ReplicasPerCell, est.TrainingRuns, est.TotalEpochs)
	if est.CachedReplicas > 0 {
		fmt.Fprintf(os.Stderr, "nnrand: grid %s: %d replicas cached, %d to train (%d epochs)\n",
			plan.ID(), est.CachedReplicas, est.TrainReplicas, est.TrainEpochs)
	}
	if *estimate {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			GridID   string               `json:"grid_id"`
			Estimate experiments.Estimate `json:"estimate"`
		}{plan.ID(), est})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *submit {
		if *tsv {
			return fmt.Errorf("grid: -tsv renders a completed result and does not apply to -submit (poll with `nnrand wait -tsv`)")
		}
		c := newClient(*addr)
		var resp server.GridResponse
		req := server.GridRequest{
			Grid:       spec,
			RunRequest: server.RunRequest{Scale: *scaleFlag, Replicas: *replicas, Seed: *seed},
		}
		if err := c.do(ctx, http.MethodPost, "/v1/grid", req, &resp); err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(resp)
		}
		printSnapshot(os.Stdout, resp.Snapshot)
		return nil
	}

	sched.SetWorkers(*workers)
	// Run the plan that was validated and estimated above — one
	// compilation, one identity.
	res, err := pops.RunPlan(ctx, plan, cfg)
	if err != nil {
		return err
	}
	switch {
	case *jsonOut:
		return report.RenderJSONResults(os.Stdout, []*report.Result{res})
	case *tsv:
		return res.RenderTSV(os.Stdout)
	default:
		return res.RenderText(os.Stdout)
	}
}

// splitList parses a comma-separated flag into trimmed, non-empty items.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// isSubcommand reports whether the first positional argument names a
// sub-command that owns the rest of the argument list.
func isSubcommand(name string) bool {
	switch name {
	case "serve", "worker", "grid", "ledger", "submit", "status", "wait", "cancel", "loadtest":
		return true
	}
	return false
}

// serveCmd runs the HTTP/JSON service until the process is interrupted.
// On SIGINT/SIGTERM it drains gracefully: readiness flips to 503, new
// submissions are refused, in-flight jobs get -drain to finish, and
// whatever is still running then is cancelled with its journal entry
// preserved for the next `serve -resume`.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("nnrand serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cache := fs.Int("cache", server.DefaultCacheSize, "completed-result store capacity")
	store := fs.String("store", "", "directory persisting completed results across restarts (empty = memory only)")
	ledgerDir := fs.String("ledger", "", "directory persisting trained replicas across restarts (empty = memory only)")
	ledgerCap := fs.Int("ledger-cap", 0, "replica ledger capacity (0 = ledger default)")
	jobWorkers := fs.Int("jobs", 0, "concurrent jobs (0 = jobs-package default)")
	queue := fs.Int("queue", 0, "submitted-job backlog bound (0 = jobs-package default)")
	resume := fs.Bool("resume", false, "resubmit the jobs journaled as unfinished by the previous process (needs -store)")
	jobTimeout := fs.Duration("job-timeout", 0, "wall-clock watchdog per job (0 = none)")
	drain := fs.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight jobs before cancelling them")
	fleetMode := fs.Bool("fleet", false, "coordinate a worker fleet: replica training is leased to `nnrand worker` processes instead of running in-process")
	leaseTTL := fs.Duration("lease-ttl", 0, "fleet lease time-to-live (0 = fleet default); expired leases are stolen by surviving workers")
	maxTrainEpochs := fs.Int("max-train-epochs", 0, "reject submissions whose estimated fresh training exceeds this many epochs (0 = unlimited)")
	rate := fs.Float64("rate", 0, "per-client request rate limit in requests/second (0 = unlimited)")
	burst := fs.Int("burst", 0, "per-client rate-limit burst size (0 = 2x rate)")
	requestLog := fs.String("request-log", "", "append one JSON line per request to FILE ('-' = stderr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *store == "" {
		return fmt.Errorf("serve: -resume needs -store (the job journal lives beside the result store)")
	}
	if *leaseTTL != 0 && !*fleetMode {
		return fmt.Errorf("serve: -lease-ttl needs -fleet")
	}
	var logW io.Writer
	switch *requestLog {
	case "":
	case "-":
		logW = os.Stderr
	default:
		f, err := os.OpenFile(*requestLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("serve: -request-log: %w", err)
		}
		defer f.Close()
		logW = f
	}
	svc, err := server.New(server.Options{
		CacheSize:      *cache,
		StoreDir:       *store,
		LedgerDir:      *ledgerDir,
		LedgerCapacity: *ledgerCap,
		Workers:        *jobWorkers,
		QueueDepth:     *queue,
		Resume:         *resume,
		JobTimeout:     *jobTimeout,
		Fleet:          *fleetMode,
		LeaseTTL:       *leaseTTL,
		MaxTrainEpochs: *maxTrainEpochs,
		Rate:           *rate,
		Burst:          *burst,
		RequestLog:     logW,
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	if *resume {
		fmt.Fprintf(os.Stderr, "nnrand: resumed %d journaled job(s)\n", svc.Recovered())
		if rerr := svc.RecoveryError(); rerr != nil {
			fmt.Fprintf(os.Stderr, "nnrand: some journal entries could not be resumed (kept for the next attempt):\n%v\n", rerr)
		}
	}
	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "nnrand: serving on %s\n", *addr)
	if f := svc.Fleet(); f != nil {
		fmt.Fprintf(os.Stderr, "nnrand: fleet mode: waiting for `nnrand worker -join` processes (lease TTL %s)\n", f.TTL())
	}
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "nnrand: draining (up to %s)...\n", *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := svc.Drain(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "nnrand: drain deadline hit; unfinished jobs stay journaled for `serve -resume`\n")
		}
		shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		return srv.Shutdown(shutdownCtx)
	}
}

// loadtestCmd benchmarks a running server: warm up the canned grid,
// then replay a seeded grid/job/result mix at each concurrency level
// and write the typed BENCH_server.json report.
func loadtestCmd(args []string) error {
	fs := flag.NewFlagSet("nnrand loadtest", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "server base URL")
	clients := fs.String("clients", "1,4,16", "comma-separated concurrency levels")
	duration := fs.Duration("duration", 5*time.Second, "measurement window per level (ignored with -requests)")
	requests := fs.Int("requests", 0, "exact requests per client per level (deterministic mode; overrides -duration)")
	mixFlag := fs.String("mix", "4:2:4", "operation weights grid:job:result")
	seed := fs.Uint64("seed", 20220622, "generator seed (also the submission seed)")
	specFile := fs.String("spec", "", "JSON grid spec file ('-' = stdin; default: the canned 2-cell test grid)")
	scaleFlag := fs.String("scale", "test", "workload scale of the replayed submissions")
	replicas := fs.Int("replicas", 1, "replicas per variant of the replayed submissions")
	out := fs.String("out", "BENCH_server.json", "report file ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("loadtest: unexpected argument %q", fs.Arg(0))
	}
	var levels []int
	for _, p := range splitList(*clients) {
		n := 0
		if _, err := fmt.Sscanf(p, "%d", &n); err != nil || n <= 0 {
			return fmt.Errorf("loadtest: -clients %q: %q is not a positive integer", *clients, p)
		}
		levels = append(levels, n)
	}
	if len(levels) == 0 {
		return fmt.Errorf("loadtest: -clients is empty")
	}
	mix, err := loadtest.ParseMix(*mixFlag)
	if err != nil {
		return err
	}
	// The default workload is the same canned grid the CI smokes submit:
	// two cells (one task, two devices, IMPL arm) at two epochs.
	spec := grid.Spec{
		Tasks:    []string{"smallcnn-cifar10"},
		Devices:  []string{"V100", "TPUv2"},
		Variants: []string{"IMPL"},
		Recipes:  []grid.Recipe{{Epochs: 2}},
	}
	if *specFile != "" {
		var raw []byte
		var err error
		if *specFile == "-" {
			raw, err = io.ReadAll(os.Stdin)
		} else {
			raw, err = os.ReadFile(*specFile)
		}
		if err != nil {
			return err
		}
		if spec, err = grid.Parse(raw); err != nil {
			return err
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := loadtest.Run(ctx, loadtest.Options{
		Addr:     *addr,
		Levels:   levels,
		Duration: *duration,
		Requests: *requests,
		Mix:      mix,
		Seed:     *seed,
		Spec:     spec,
		Scale:    *scaleFlag,
		Replicas: *replicas,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "nnrand: loadtest: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if *out == "-" {
		_, err = os.Stdout.Write(buf.Bytes())
		return err
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "nnrand: loadtest: report written to %s\n", *out)
	return nil
}

// workerCmd joins a fleet coordinator and trains leased work units until
// interrupted. The worker is stateless: everything it needs arrives in
// the lease, every result leaves as a CRC-protected upload, and a
// SIGKILL at any point merely lets its leases expire so the rest of the
// fleet steals the work.
func workerCmd(args []string) error {
	fs := flag.NewFlagSet("nnrand worker", flag.ContinueOnError)
	join := fs.String("join", "http://localhost:8080", "coordinator base URL (a `nnrand serve -fleet` server)")
	trainers := fs.Int("workers", 0, "concurrent training loops (0 = GOMAXPROCS via the sched default, capped at 4)")
	name := fs.String("name", "", "worker name reported to the coordinator (default <hostname>-<pid>)")
	batch := fs.Int("batch", 1, "work units to lease per pull")
	quiet := fs.Bool("quiet", false, "suppress per-unit progress lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("worker: unexpected argument %q", fs.Arg(0))
	}
	n := *trainers
	if n <= 0 {
		if n = sched.Workers(); n > 4 {
			// Trainers multiply: each unit trains on this process anyway, so
			// a huge default would just thrash one box. Scale out with more
			// worker processes instead.
			n = 4
		}
	}
	w := &fleet.Worker{Base: *join, Name: *name, Trainers: n, Batch: *batch}
	if !*quiet {
		w.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "nnrand: worker: "+format+"\n", args...)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "nnrand: worker joining %s with %d trainer(s)\n", *join, n)
	err := w.Run(ctx)
	fmt.Fprintf(os.Stderr, "nnrand: worker done: trained %d replica(s)\n", w.Trains())
	if err == context.Canceled {
		return nil
	}
	return err
}

// ledgerCmd inspects and garbage-collects a replica ledger directory:
// `ledger -dir DIR list` tables every record (most recently used first),
// `ledger -dir DIR gc -keep N` evicts the least recently used beyond N.
func ledgerCmd(args []string) error {
	fs := flag.NewFlagSet("nnrand ledger", flag.ContinueOnError)
	dir := fs.String("dir", "", "replica ledger directory (required)")
	keep := fs.Int("keep", ledger.DefaultCapacity, "records to retain with gc")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flags may flank the action: `ledger -dir D gc -keep N` re-parses
	// what follows the action name.
	action := "list"
	if rest := fs.Args(); len(rest) > 0 {
		action = rest[0]
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("ledger: unexpected argument %q", fs.Arg(0))
		}
	}
	if *dir == "" {
		return fmt.Errorf("ledger: -dir is required")
	}
	// Index everything: the tool must see records beyond the serving
	// capacity, and must never evict as a side effect of opening.
	led, err := ledger.Open(*dir, 1<<30)
	if err != nil {
		return err
	}
	switch action {
	case "list":
		tb := report.New(fmt.Sprintf("Replica ledger %s (%d records)", *dir, led.Len()),
			"cell", "replica", "acc(%)", "bytes")
		for _, in := range led.Entries() {
			tb.AddStrings(in.Cell,
				fmt.Sprintf("%d", in.Replica),
				fmt.Sprintf("%.2f", 100*in.TestAccuracy),
				fmt.Sprintf("%d", in.Bytes))
		}
		if err := tb.Render(os.Stdout); err != nil {
			return err
		}
		if n := recdir.QuarantineCount(*dir); n > 0 {
			fmt.Fprintf(os.Stderr, "nnrand: %d corrupt record(s) in %s — inspect the .reason files\n",
				n, filepath.Join(*dir, recdir.QuarantineDir))
		}
		return nil
	case "gc":
		if *keep < 0 {
			return fmt.Errorf("ledger: -keep must be >= 0")
		}
		removed := led.GC(*keep)
		fmt.Fprintf(os.Stdout, "removed %d records, kept %d\n", removed, led.Len())
		return nil
	}
	return fmt.Errorf("ledger: unknown action %q (list or gc)", action)
}

// apiClient is the thin HTTP client behind submit/status/wait/cancel.
type apiClient struct {
	base string
	http *http.Client
}

func newClient(addr string) *apiClient {
	return &apiClient{base: strings.TrimRight(addr, "/"), http: &http.Client{}}
}

// do issues one request and decodes the JSON reply into out (unless nil).
// Non-2xx replies are surfaced as errors carrying the server's message.
func (c *apiClient) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s %s: %s (HTTP %d)", method, path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// printSnapshot writes one job's status line: ID, state, progress,
// result key.
func printSnapshot(w io.Writer, snap jobs.Snapshot) {
	line := fmt.Sprintf("%s\t%s", snap.ID, snap.State)
	if snap.Progress.Total > 0 {
		// Units are replicas for training grids, cells for profiling runs.
		line += fmt.Sprintf("\t%d/%d", snap.Progress.Done, snap.Progress.Total)
	}
	if snap.Cached {
		line += "\tcached"
	}
	if snap.Error != nil {
		line += "\t" + snap.Error.Message
	}
	fmt.Fprintf(w, "%s\t%s\n", line, snap.Key)
}

// submitCmd posts one job per experiment and prints the job IDs without
// waiting — the submit half of the submit/poll/fetch workflow.
func submitCmd(args []string) error {
	fs := flag.NewFlagSet("nnrand submit", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "server base URL")
	scaleFlag := fs.String("scale", "quick", "workload scale: test, quick or full")
	replicas := fs.Int("replicas", 0, "replicas per variant (0 = scale default)")
	seed := fs.Uint64("seed", 20220622, "base seed for all seed policies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("submit: no experiment given")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := newClient(*addr)
	for _, id := range dedup(fs.Args()) {
		var snap jobs.Snapshot
		req := server.SubmitRequest{
			Experiment: id,
			RunRequest: server.RunRequest{Scale: *scaleFlag, Replicas: *replicas, Seed: *seed},
		}
		if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &snap); err != nil {
			return err
		}
		printSnapshot(os.Stdout, snap)
	}
	return nil
}

// statusCmd prints the current snapshot of each job.
func statusCmd(args []string) error {
	fs := flag.NewFlagSet("nnrand status", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "server base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("status: no job ID given")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := newClient(*addr)
	for _, id := range fs.Args() {
		var snap jobs.Snapshot
		if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &snap); err != nil {
			return err
		}
		printSnapshot(os.Stdout, snap)
	}
	return nil
}

// waitCmd polls each job until it is terminal, then renders its result
// (text by default, -tsv or -json like the local runner). A failed or
// cancelled job surfaces as an error after completed ones have rendered.
func waitCmd(args []string) error {
	fs := flag.NewFlagSet("nnrand wait", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "server base URL")
	poll := fs.Duration("poll", 500*time.Millisecond, "status poll interval")
	tsv := fs.Bool("tsv", false, "emit tab-separated values")
	jsonOut := fs.Bool("json", false, "emit a JSON array of typed results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("wait: no job ID given")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := newClient(*addr)
	var results []*report.Result
	render := func() error {
		if *jsonOut && len(results) > 0 {
			return report.RenderJSONResults(os.Stdout, results)
		}
		return nil
	}
	for _, id := range fs.Args() {
		snap, err := c.awaitJob(ctx, id, *poll)
		if err != nil {
			if rerr := render(); rerr != nil {
				return fmt.Errorf("%w (and rendering completed results failed: %v)", err, rerr)
			}
			return err
		}
		results = append(results, snap.Result)
		switch {
		case *jsonOut:
			// Rendered once, as one array, after every job finishes.
		case *tsv:
			if err := snap.Result.RenderTSV(os.Stdout); err != nil {
				return err
			}
		default:
			if err := snap.Result.RenderText(os.Stdout); err != nil {
				return err
			}
		}
	}
	return render()
}

// awaitJob polls one job until it is terminal and returns its final
// snapshot; failed and cancelled jobs become errors.
func (c *apiClient) awaitJob(ctx context.Context, id string, poll time.Duration) (jobs.Snapshot, error) {
	for {
		var snap jobs.Snapshot
		if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &snap); err != nil {
			return snap, err
		}
		switch {
		case snap.State == jobs.StateDone && snap.Result != nil:
			return snap, nil
		case snap.State.Terminal():
			msg := string(snap.State)
			if snap.Error != nil {
				msg = snap.Error.Message
			}
			return snap, fmt.Errorf("job %s %s: %s", id, snap.State, msg)
		}
		select {
		case <-ctx.Done():
			return snap, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// cancelCmd aborts each job and prints its post-cancel snapshot.
func cancelCmd(args []string) error {
	fs := flag.NewFlagSet("nnrand cancel", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "server base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("cancel: no job ID given")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := newClient(*addr)
	for _, id := range fs.Args() {
		var snap jobs.Snapshot
		if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &snap); err != nil {
			return err
		}
		printSnapshot(os.Stdout, snap)
	}
	return nil
}
