// Package server exposes the experiment registry as an embeddable
// HTTP/JSON service — the API boundary that lets dashboards, benchmark
// harnesses and batch clients consume paper artifacts programmatically
// instead of scraping CLI text.
//
// Endpoints (full request/response examples in docs/api.md):
//
//	GET    /v1/experiments          registry metadata for every experiment
//	GET    /v1/devices              the simulated accelerator catalog
//	GET    /v1/workloads            the training-recipe catalog
//	POST   /v1/experiments/{id}/run run one experiment synchronously
//	GET    /v1/results/{key}        fetch a completed result from the store
//	POST   /v1/jobs                 submit an asynchronous run; returns a job ID
//	POST   /v1/grid                 validate, cost-estimate and submit a custom grid spec
//	GET    /v1/jobs                 list retained jobs (results stripped)
//	GET    /v1/jobs/{id}            job status, progress, and result when done
//	DELETE /v1/jobs/{id}            cancel a queued or running job
//	GET    /v1/healthz              liveness: the process is serving
//	GET    /v1/readyz               readiness: store/ledger/journal writable, queue has headroom
//	GET    /v1/stats                queue, job, ledger, population and fleet counters
//	POST   /v1/work/lease           (fleet mode) worker pulls work units under a TTL lease
//	POST   /v1/work/{id}/heartbeat  (fleet mode) worker extends its lease
//	POST   /v1/work/{id}/complete   (fleet mode) worker uploads a trained replica
//
// With Options.Fleet the server becomes a distributed-training
// coordinator (internal/fleet): replica misses are no longer trained in
// process but queued as work units that `nnrand worker -join` processes
// lease, train and upload. Results remain bit-identical to single-node
// runs — the workers execute the same deterministic training on the
// same resolved units, and every result merges through the same keyed
// ledger write.
//
// /v1/grid is the composition endpoint: the JSON body declares a grid
// (tasks × devices × variants, optional recipe overrides and metric
// selection — see internal/grid); the server validates it against the
// catalogs, prices it, and submits it through the job engine keyed by the
// canonical spec hash, so identical grids dedup live, persist like any
// paper artifact, and are served from the store across restarts. Custom
// grids and registered artifacts share one population cache: a custom
// cell whose resolved recipe matches a paper cell trains nothing new.
//
// Every run — synchronous or submitted — flows through the job engine
// (internal/jobs): identical live requests collapse onto one job, the
// bounded queue applies backpressure (503 when full), and completed
// results land in the engine's content-addressed store. With a store
// directory configured, results persist across restarts, so resubmitting
// a configuration the server has ever completed trains nothing and is
// served from disk. With a ledger directory configured the population
// layer additionally persists every trained replica (internal/ledger),
// which covers the cases the result store cannot: a *new* grid that
// merely overlaps previously trained cells, or a larger replica count
// over them, trains only the replicas the ledger has never seen — the
// grid estimate reports that split as cached_replicas/train_replicas. The synchronous run endpoint is submit+wait over the
// same engine: its jobs are owned by their HTTP clients, and when every
// client for a run has disconnected the job is cancelled so abandoned
// work stops burning the pool — unless an asynchronous submission has
// also claimed the job, in which case it survives its waiters.
//
// Failure model (DESIGN.md §11): with a store directory configured the
// server also keeps a durable job journal under <store>/journal — one
// JSON file per non-terminal job, removed when the job settles. Starting
// with Options.Resume (the `serve -resume` flag) resubmits the journaled
// work: results that landed before the crash serve as cached, and
// interrupted grids retrain only the replicas the ledger is missing.
// Corrupt store/ledger records are quarantined (moved aside with a
// reason file), never deleted, and reads degrade to a recompute.
//
// Concurrency and determinism contract: handlers are safe for arbitrary
// concurrency; every run derives its randomness from explicit seeds, so
// a result served from cache or disk is bit-identical to rerunning it.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/grid"
	"repro/internal/jobs"
	"repro/internal/ledger"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// DefaultCacheSize bounds the completed-result store when
// Options.CacheSize is zero.
const DefaultCacheSize = jobs.DefaultStoreCapacity

// RunFunc executes one experiment. Tests substitute stubs; production
// servers use experiments.Run.
type RunFunc = jobs.RunFunc

// Options configures a Server.
type Options struct {
	// CacheSize is the completed-result store capacity (0 = DefaultCacheSize).
	CacheSize int
	// StoreDir, when non-empty, persists completed results as JSON files
	// there so they survive restarts. Empty keeps results in memory only.
	StoreDir string
	// LedgerDir, when non-empty, persists every trained replica there
	// (internal/ledger) and attaches the ledger to the population cache,
	// so a restarted server warm-starts: any grid overlapping previously
	// trained cells — even at a larger replica count — trains only the
	// replicas the ledger has never seen. With Populations nil this
	// attaches to the process-wide default cache — deliberately, because
	// registered paper artifacts train through it too — so a process
	// should configure at most one ledger-backed Server this way;
	// embedders running several Servers must inject distinct Populations.
	LedgerDir string
	// LedgerCapacity bounds retained replicas (0 = the ledger default).
	LedgerCapacity int
	// Populations overrides the population cache behind custom-grid
	// execution and warm estimates (nil = experiments.DefaultPopulations,
	// which the registered artifacts also train through). Tests inject
	// isolated caches here to simulate process restarts.
	Populations *experiments.Populations
	// Workers bounds how many jobs execute concurrently (0 = the jobs
	// package default).
	Workers int
	// QueueDepth bounds the submitted-job backlog; beyond it, submissions
	// fail with 503 (0 = the jobs package default).
	QueueDepth int
	// Run overrides the experiment executor (nil = experiments.Run).
	Run RunFunc
	// RunGrid overrides the custom-grid executor (nil = the configured
	// population cache's RunPlan, which shares populations with the
	// registered artifacts).
	RunGrid GridRunFunc
	// Resume resubmits the journaled (non-terminal at last shutdown) jobs
	// on startup. It needs StoreDir: the journal lives beside the result
	// store. Entries that cannot be resolved stay journaled and are
	// reported by RecoveryError.
	Resume bool
	// JobTimeout, when positive, fails any job still running after this
	// long with a typed "timeout" error.
	JobTimeout time.Duration
	// Fleet turns the server into a distributed-training coordinator:
	// replica misses queue as fleet work units served over the
	// /v1/work/* endpoints instead of training in process, so capacity
	// scales with joined `nnrand worker` processes. Grids submitted to a
	// fleet server with no workers joined wait until one joins.
	Fleet bool
	// LeaseTTL is the fleet lease time-to-live (0 picks the fleet
	// default). Shorter TTLs steal abandoned units faster at the cost of
	// more heartbeat traffic.
	LeaseTTL time.Duration
	// MaxTrainEpochs is the admission budget: grid and experiment
	// submissions whose ledger-priced estimate would train more than
	// this many epochs are refused with 429 (reason "budget_exceeded",
	// the estimate echoed). 0 admits everything.
	MaxTrainEpochs int
	// Rate, when positive, enables the per-client token-bucket rate
	// limiter: each remote host is admitted Rate requests/second
	// (bursting to Burst) on every endpoint except /v1/healthz and
	// /v1/readyz; beyond that, requests are shed with 429 (reason
	// "rate_limited") and a Retry-After.
	Rate float64
	// Burst caps a client's token bucket (0 picks max(1, 2*Rate)).
	Burst int
	// RequestLog, when non-nil, receives one structured JSON line per
	// completed request (method, route, status, bytes, duration, remote,
	// job/result key). The stream is observability, never control flow:
	// write errors are dropped.
	RequestLog io.Writer
}

// GridRunFunc executes one compiled grid plan. Tests substitute stubs;
// production servers run on the experiments engine.
type GridRunFunc func(ctx context.Context, plan *experiments.Plan, cfg experiments.Config) (*report.Result, error)

// Server is the embeddable HTTP/JSON service over the experiment registry.
type Server struct {
	engine  *jobs.Engine
	pops    *experiments.Populations
	led     *ledger.Ledger     // nil when no ledger directory is configured
	fleet   *fleet.Coordinator // nil when Options.Fleet is off
	runGrid GridRunFunc
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in rate-limit + telemetry middleware

	// Serving observability and admission control (DESIGN.md §13).
	tel            *telemetry.Registry
	limiter        *rateLimiter // nil when Options.Rate is zero
	maxTrainEpochs int
	rejectedBudget atomic.Int64
	shedRate       atomic.Int64
	shedQueue      atomic.Int64

	recovered  int
	recoverErr error
}

// New returns a Server ready to serve via Handler(). It fails only when
// a configured store, ledger or journal directory cannot be created or
// scanned — never because of what the directories contain (corrupt
// records are quarantined, unresolvable journal entries reported via
// RecoveryError).
func New(opts Options) (*Server, error) {
	store, err := jobs.Open(opts.StoreDir, opts.CacheSize)
	if err != nil {
		return nil, err
	}
	pops := opts.Populations
	if pops == nil {
		pops = experiments.DefaultPopulations()
	}
	var led *ledger.Ledger
	if opts.LedgerDir != "" {
		led, err = ledger.Open(opts.LedgerDir, opts.LedgerCapacity)
		if err != nil {
			return nil, err
		}
		pops.SetLedger(led)
	}
	// The journal rides along with the result store: both exist to make a
	// restart indistinguishable from a pause. A memory-only server has
	// nothing to resume into, so it gets no journal.
	var journal *jobs.Journal
	if opts.StoreDir != "" {
		journal, err = jobs.OpenJournal(filepath.Join(opts.StoreDir, "journal"))
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		engine: jobs.NewEngine(jobs.Options{
			Workers:    opts.Workers,
			QueueDepth: opts.QueueDepth,
			Store:      store,
			Run:        opts.Run,
			Journal:    journal,
			JobTimeout: opts.JobTimeout,
		}),
		pops:           pops,
		led:            led,
		runGrid:        opts.RunGrid,
		tel:            telemetry.New(),
		maxTrainEpochs: opts.MaxTrainEpochs,
	}
	if opts.Rate > 0 {
		s.limiter = newRateLimiter(opts.Rate, opts.Burst)
	}
	if s.runGrid == nil {
		s.runGrid = func(ctx context.Context, plan *experiments.Plan, cfg experiments.Config) (*report.Result, error) {
			return pops.RunPlan(ctx, plan, cfg)
		}
	}
	if opts.Fleet {
		// Rejected uploads are preserved beside the ledger when one is
		// configured, so a torn record survives for diagnosis like any
		// other quarantined evidence.
		var fdir string
		if opts.LedgerDir != "" {
			fdir = filepath.Join(opts.LedgerDir, "fleet")
		}
		s.fleet = fleet.New(fleet.Options{TTL: opts.LeaseTTL, Dir: fdir})
		pops.SetExecutor(s.fleet)
	}
	if opts.Resume && journal != nil {
		s.recovered, s.recoverErr = s.engine.Recover(s.resolveTask)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", s.handleList)
	mux.HandleFunc("GET /v1/devices", s.handleDevices)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("POST /v1/experiments/{id}/run", s.handleRun)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/grid", s.handleGrid)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	if s.fleet != nil {
		mux.HandleFunc("POST /v1/work/lease", s.handleWorkLease)
		mux.HandleFunc("POST /v1/work/{id}/heartbeat", s.handleWorkHeartbeat)
		mux.HandleFunc("POST /v1/work/{id}/complete", s.handleWorkComplete)
	}
	s.mux = mux
	// Request flow: telemetry observes everything — including what the
	// rate limiter sheds, so the 429s are visible in the very metrics
	// that explain them — then the token bucket, then the mux.
	s.handler = telemetry.Middleware(s.tel, routeLabel, telemetry.NewLogger(opts.RequestLog), s.limit(mux))
	return s, nil
}

// Fleet exposes the coordinator when fleet mode is on (nil otherwise) —
// diagnostics and tests.
func (s *Server) Fleet() *fleet.Coordinator { return s.fleet }

// Handler returns the service's HTTP handler for embedding under any
// listener, router prefix or test server. The handler is the full
// serving stack: telemetry middleware, then the rate limiter (when
// configured), then the route mux.
func (s *Server) Handler() http.Handler { return s.handler }

// Telemetry exposes the server's request-metrics registry — tests and
// embedders read counters without an HTTP round trip through
// /v1/metrics.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// Close cancels live jobs and waits for the engine's workers to drain.
// Shutdown cancellations keep their journal entries, so a later
// `serve -resume` picks the interrupted work back up.
func (s *Server) Close() { s.engine.Close() }

// Drain begins graceful shutdown: readiness flips to 503, new
// submissions are refused, and the call blocks until in-flight jobs
// finish or ctx expires (whatever is still running then is cancelled
// with its journal entry preserved). Follow with Close.
func (s *Server) Drain(ctx context.Context) error { return s.engine.Drain(ctx) }

// Recovered reports how many journaled jobs the Resume option
// resubmitted at startup.
func (s *Server) Recovered() int { return s.recovered }

// RecoveryError reports the journal entries Resume could not resubmit
// (nil when recovery was clean or not requested). Those entries stay
// journaled.
func (s *Server) RecoveryError() error { return s.recoverErr }

// resolveTask is the engine's recovery resolver: a journaled task entry
// carries the canonical grid spec as its payload, which recompiles into
// the same plan — and therefore the same result key — it had before the
// crash. An entry whose payload computes a different key is refused, so
// one grid's result is never stored under another's key.
func (s *Server) resolveTask(entry jobs.JournalEntry) (func(context.Context) (*report.Result, error), error) {
	if len(entry.Payload) == 0 {
		return nil, fmt.Errorf("no grid spec payload")
	}
	var spec grid.Spec
	if err := json.Unmarshal(entry.Payload, &spec); err != nil {
		return nil, fmt.Errorf("decoding grid spec payload: %w", err)
	}
	plan, err := experiments.CompileSpec(spec)
	if err != nil {
		return nil, err
	}
	cfg, err := entry.Config()
	if err != nil {
		return nil, err
	}
	cfg = plan.Config(cfg)
	if key := jobs.ResultKey(plan.ID(), cfg); key != entry.Key {
		return nil, fmt.Errorf("grid spec payload computes result key %q, not the entry's", key)
	}
	return func(ctx context.Context) (*report.Result, error) {
		return s.runGrid(ctx, plan, cfg)
	}, nil
}

// RunRequest is the POST /v1/experiments/{id}/run body. Every field is
// optional; zero values pick the CLI defaults (quick scale, scale-default
// replicas, the paper seed).
type RunRequest struct {
	Scale    string `json:"scale,omitempty"`
	Replicas int    `json:"replicas,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
}

// SubmitRequest is the POST /v1/jobs body: a RunRequest plus the
// experiment to run. Embedding keeps the two endpoints' configuration
// schema one definition.
type SubmitRequest struct {
	Experiment string `json:"experiment"`
	RunRequest
}

// RunResponse is the POST /v1/experiments/{id}/run reply.
type RunResponse struct {
	// Key addresses the result in GET /v1/results/{key}.
	Key string `json:"key"`
	// Cached reports whether the result was served from the completed-result
	// store without running anything.
	Cached bool           `json:"cached"`
	Result *report.Result `json:"result"`
}

// ListResponse is the GET /v1/experiments reply.
type ListResponse struct {
	Experiments []experiments.Meta `json:"experiments"`
}

// DevicesResponse is the GET /v1/devices reply: the simulated accelerator
// catalog, with the aliases grid specs may use.
type DevicesResponse struct {
	Devices []device.Info `json:"devices"`
}

// WorkloadsResponse is the GET /v1/workloads reply: every training recipe
// a grid spec may name.
type WorkloadsResponse struct {
	Workloads []experiments.Workload `json:"workloads"`
}

// GridRequest is the POST /v1/grid body: a declarative grid spec plus the
// usual run configuration.
type GridRequest struct {
	Grid grid.Spec `json:"grid"`
	RunRequest
}

// GridResponse is the POST /v1/grid reply: the submitted job's snapshot
// (202 while queued/running, 200 when served from the store) plus the
// compiled grid's identity and declared cost. The estimate is priced
// against the live replica ledger: cached_replicas counts the replicas
// already held (warm restarts, overlapping grids, smaller prior runs of
// the same cells) and train_replicas/train_epochs what this submission
// would actually pay.
type GridResponse struct {
	jobs.Snapshot
	// GridID is the canonical "grid-<hash>" identity of the compiled spec.
	GridID string `json:"grid_id"`
	// Estimate prices the grid before any training starts.
	Estimate experiments.Estimate `json:"estimate"`
}

// errorResponse is every non-2xx body. Capacity refusals (429/503)
// additionally carry a machine-readable Reason, a Retry-After echo, and
// — for budget rejections — the estimate that priced the refusal, so
// clients can shrink the request instead of guessing.
type errorResponse struct {
	Error string `json:"error"`
	// Reason is the machine-readable refusal class ("queue_full",
	// "budget_exceeded", "rate_limited", "draining"); empty on plain
	// validation errors.
	Reason string `json:"reason,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header for clients that
	// only parse bodies.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// Estimate echoes the admission price on budget rejections.
	Estimate *experiments.Estimate `json:"estimate,omitempty"`
	// MaxTrainEpochs echoes the budget the estimate was judged against.
	MaxTrainEpochs int `json:"max_train_epochs,omitempty"`
}

// writeError writes a JSON error reply, surfacing RetryAfterSeconds as
// a real Retry-After header so generic HTTP clients back off too.
func writeError(w http.ResponseWriter, status int, resp errorResponse) {
	if resp.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", resp.RetryAfterSeconds))
	}
	writeJSON(w, status, resp)
}

// ResultKey is the canonical, URL-safe identity of a run:
// {id}-{scale}-r{replicas}-s{seed} with the scale-default replica count
// resolved, so equivalent configurations collide. (It is also the
// store's on-disk filename stem; see internal/jobs.)
func ResultKey(id string, cfg experiments.Config) string {
	return jobs.ResultKey(id, cfg)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ListResponse{Experiments: experiments.All()})
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, DevicesResponse{Devices: device.Describe()})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, WorkloadsResponse{Workloads: experiments.Workloads()})
}

// handleGrid is POST /v1/grid: compile the declared spec against the
// catalogs (400 on any unresolved name), price it, and submit it through
// the job engine keyed by the canonical spec hash — so identical grids
// join live jobs, completed ones persist in the store, and a restarted
// server answers a repeat submission with zero retraining.
func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	var req GridRequest
	if err := decodeBody(r.Body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	plan, err := experiments.CompileSpec(req.Grid)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	cfg, err := buildConfig(req.Scale, req.Replicas, req.Seed)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	cfg = plan.Config(cfg)
	key := jobs.ResultKey(plan.ID(), cfg)
	// Price the grid before submitting: the estimate must describe what
	// this submission pays, and a fast job could start landing replicas in
	// the ledger before the response is assembled. The same estimate is
	// the admission price: over-budget grids are refused here, before any
	// queue slot or training epoch is spent on them.
	est := s.pops.Estimate(plan, cfg)
	if !s.admitBudget(w, est) {
		return
	}
	// The canonical spec is the job's durable payload: if the process dies
	// mid-grid, `serve -resume` recompiles it (resolveTask) and resubmits
	// under the same key.
	payload, _ := json.Marshal(plan.Spec)
	job, err := s.engine.SubmitTask(plan.ID(), key, cfg, payload, func(ctx context.Context) (*report.Result, error) {
		return s.runGrid(ctx, plan, cfg)
	})
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	snap := job.Snapshot()
	telemetry.Annotate(r.Context(), snap.Key)
	status := http.StatusAccepted
	if snap.State.Terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, GridResponse{Snapshot: snap, GridID: plan.ID(), Estimate: est})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	telemetry.Annotate(r.Context(), key)
	res, ok := s.engine.Store().Get(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no completed result for key %q", key)})
		return
	}
	writeJSON(w, http.StatusOK, RunResponse{Key: key, Cached: true, Result: res})
}

// handleRun is the synchronous endpoint, reimplemented as submit+wait
// over the job engine: the HTTP client owns (a share of) the job and
// blocks until it is terminal.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := experiments.Describe(id); err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	var req RunRequest
	if err := decodeBody(r.Body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	cfg, err := buildConfig(req.Scale, req.Replicas, req.Seed)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// Synchronous runs pay for training like any submission, so the
	// admission budget prices them too (bespoke non-grid artifacts have
	// no estimate and are admitted — they train nothing the estimator
	// can see).
	if est, ok := s.pops.EstimateExperiment(id, cfg); ok && !s.admitBudget(w, est) {
		return
	}
	job, err := s.engine.SubmitAttached(id, cfg)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	telemetry.Annotate(r.Context(), jobs.ResultKey(id, cfg))
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// This client is gone. The last waiter out cancels the job (unless
		// an asynchronous submission detached it) so abandoned work stops
		// burning the pool; an identical request arriving while the doomed
		// job is winding down starts a fresh one.
		job.Release()
		return
	}
	snap := job.Snapshot()
	if snap.Error != nil {
		status := http.StatusInternalServerError
		if snap.Error.Kind == jobs.ErrKindCancelled {
			// Only possible when every client (including this one, racing
			// its own disconnect) abandoned or DELETEd the job.
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, errorResponse{Error: snap.Error.Message})
		return
	}
	writeJSON(w, http.StatusOK, RunResponse{Key: snap.Key, Cached: snap.Cached, Result: snap.Result})
}

// handleSubmit is POST /v1/jobs: enqueue a detached run and return its
// job snapshot immediately — 200 when the result was already stored (the
// job is born done), 202 otherwise.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeBody(r.Body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if req.Experiment == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing required field \"experiment\""})
		return
	}
	if _, err := experiments.Describe(req.Experiment); err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	cfg, err := buildConfig(req.Scale, req.Replicas, req.Seed)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if est, ok := s.pops.EstimateExperiment(req.Experiment, cfg); ok && !s.admitBudget(w, est) {
		return
	}
	job, err := s.engine.Submit(req.Experiment, cfg)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	snap := job.Snapshot()
	telemetry.Annotate(r.Context(), snap.Key)
	status := http.StatusAccepted
	if snap.State.Terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, snap)
}

// JobsResponse is the GET /v1/jobs reply: every retained job's snapshot
// in submission order, results stripped (fetch one job or its result
// key for the payload — the listing stays cheap no matter how large the
// retained results are).
type JobsResponse struct {
	Jobs []jobs.Snapshot `json:"jobs"`
}

// handleJobList is GET /v1/jobs: the retained jobs, live first-class —
// recovery tooling uses it to find resubmitted jobs after a restart.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	list := s.engine.Jobs()
	out := make([]jobs.Snapshot, 0, len(list))
	for _, j := range list {
		snap := j.Snapshot()
		snap.Result = nil
		out = append(out, snap)
	}
	writeJSON(w, http.StatusOK, JobsResponse{Jobs: out})
}

// HealthResponse is the GET /v1/healthz reply.
type HealthResponse struct {
	Status string `json:"status"`
}

// handleHealthz is GET /v1/healthz: pure liveness. If this handler runs
// at all, the process is up — degradation belongs to readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// ReadyResponse is the GET /v1/readyz reply: overall readiness plus the
// per-check verdicts ("ok" or the failure), so an operator reading a 503
// sees which dependency degraded.
type ReadyResponse struct {
	Ready  bool              `json:"ready"`
	Checks map[string]string `json:"checks"`
}

// handleReadyz is GET /v1/readyz: ready means this server can accept and
// durably complete new work — the result store and replica ledger accept
// writes, the job queue has headroom, and the server is not draining.
// Any failed check turns the reply into a 503 while the process keeps
// serving reads (that is the graceful part of the degradation).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	checks := map[string]string{}
	ok := func(name string, err error) {
		if err != nil {
			checks[name] = err.Error()
		} else {
			checks[name] = "ok"
		}
	}
	ok("store", s.engine.Store().Writable())
	if s.led != nil {
		ok("ledger", s.led.Writable())
	}
	if j := s.engine.Journal(); j != nil {
		// A journal that cannot record silently downgrades every
		// submission from crash-safe to best-effort — readiness must
		// surface it, not let the next crash discover it.
		ok("journal", j.Writable())
	}
	queued, capacity := s.engine.QueueBacklog()
	if queued >= capacity {
		checks["queue"] = fmt.Sprintf("backlog full (%d/%d)", queued, capacity)
	} else {
		checks["queue"] = fmt.Sprintf("ok (%d/%d)", queued, capacity)
	}
	if s.engine.Draining() {
		checks["draining"] = "server is draining"
	}
	resp := ReadyResponse{Ready: true, Checks: checks}
	for _, v := range checks {
		if v != "ok" && !strings.HasPrefix(v, "ok ") {
			resp.Ready = false
		}
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// handleJobStatus is GET /v1/jobs/{id}: the job's snapshot, including
// progress while running and the full result once done.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.engine.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no such job %q", id)})
		return
	}
	snap := job.Snapshot()
	telemetry.Annotate(r.Context(), snap.Key)
	writeJSON(w, http.StatusOK, snap)
}

// handleJobCancel is DELETE /v1/jobs/{id}: stop a queued job immediately
// or a running one at its next training-batch boundary. Cancelling a
// terminal job is a no-op; either way the current snapshot is returned.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.engine.Cancel(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no such job %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// queueFullRetryAfterSeconds is the Retry-After hint when the backlog
// is at capacity: queues drain at training speed, so a quick retry
// would only meet the same wall.
const queueFullRetryAfterSeconds = 5

// writeSubmitError maps engine submission failures onto HTTP replies: a
// full queue is backpressure (503, reason "queue_full", Retry-After), a
// draining server is shutdown (503, reason "draining"), anything else
// is internal.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.shedQueue.Add(1)
		writeError(w, http.StatusServiceUnavailable, errorResponse{
			Error:             err.Error(),
			Reason:            ReasonQueueFull,
			RetryAfterSeconds: queueFullRetryAfterSeconds,
		})
	case errors.Is(err, jobs.ErrQueueClosed):
		writeError(w, http.StatusServiceUnavailable, errorResponse{
			Error:             err.Error(),
			Reason:            ReasonDraining,
			RetryAfterSeconds: queueFullRetryAfterSeconds,
		})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// maxBodyBytes bounds request bodies. Sized for the largest legitimate
// payload — a grid spec near the MaxCells bound with a long recipe sweep
// is well under 1 MiB — while still refusing unbounded uploads.
const maxBodyBytes = 1 << 20

// decodeBody parses a JSON request body into dst, tolerating an empty
// body (all defaults) and rejecting unknown fields, anything but
// whitespace after the first JSON value, and oversized bodies (with an
// explicit error, not a confusing mid-document EOF).
func decodeBody(body io.Reader, dst any) error {
	raw, err := io.ReadAll(io.LimitReader(body, maxBodyBytes+1))
	if err != nil {
		return fmt.Errorf("reading request body: %w", err)
	}
	if len(raw) > maxBodyBytes {
		return fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)
	}
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("decoding request body: content after the JSON value")
	}
	return nil
}

// buildConfig resolves wire-level scale/replicas/seed onto the CLI
// defaults and validates them.
func buildConfig(scale string, replicas int, seed uint64) (experiments.Config, error) {
	cfg := experiments.DefaultConfig()
	if scale != "" {
		s, err := data.ParseScale(scale)
		if err != nil {
			return cfg, err
		}
		cfg.Scale = s
	}
	if replicas < 0 {
		return cfg, fmt.Errorf("replicas must be >= 0, got %d", replicas)
	}
	if replicas > grid.MaxReplicas {
		return cfg, fmt.Errorf("replicas = %d, max %d", replicas, grid.MaxReplicas)
	}
	cfg.Replicas = replicas
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}
