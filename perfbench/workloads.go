package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/jobs"
	"repro/internal/ledger"
	"repro/internal/report"
	"repro/internal/server"
)

// benchScale is the data scale every workload runs at.
const benchScale = "test"

var benchScaleValue = data.ScaleTest

// setups is how many times an untraced run sets its server up; setup_s
// is their median.
const setups = 5

// The open loop's cached reads follow the default mix of nnrand loadtest,
// which BENCH_server.json was recorded with: grid:job:result = 4:2:4,
// i.e. cached POST /v1/grid, GET /v1/jobs/{id}, GET /v1/results/{key}.
const mixGrid, mixJob, mixResult = 4, 2, 4

// warmEvery puts one ledger-served grid among every warmEvery operations
// of the open loop. No traffic record gives this share; it is set by the
// sample count: a 20 s serve-warm run holds about 400 ledger-served
// grids, enough for bench.warm_grid_p50_ms and a p97.5 with 10 samples
// beyond, while cached reads stay 96% of the operations.
const warmEvery = 25

// readRate is the open loop's fixed rate, in operations a second: a
// quarter or less of the server.max_rps the traced serve-warm ladder
// measured with this mix on a quiet 2-vCPU host (2000 to 3000; while the
// hypervisor took a fifth of that host's CPU time, no rung passed), and
// under a tenth of the rate nnrand loadtest saturated cached reads at
// (BENCH_server.json, 6.6k rps and up). At 1000 operations a second the
// client's nproc connections queued enough that read_p50_ms moved by
// half between runs.
const readRate = 500

// maxLatencyMs stands in for the latency of a failed operation: a
// refusal or error counts as missing any latency limit.
const maxLatencyMs = 1e6

// workload describes one benchmark workload.
type workload struct {
	task     string
	devices  []string
	variants []string
	replicas int
	epochs   int  // recipe epoch override; 0 keeps the test-scale recipe
	fleet    bool // train through in-process fleet workers
	serve    bool // no training: a restarted server over a filled ledger and store
}

var workloads = map[string]workload{
	"train-smallcnn": {
		task: "SmallCNN CIFAR-10", devices: []string{"V100", "TPUv2"}, variants: []string{"IMPL", "CONTROL"},
		replicas: 2,
	},
	"train-resnet1": {
		task: "ResNet18 CIFAR-10", devices: []string{"V100"}, variants: []string{"IMPL"},
		replicas: 1, epochs: 4,
	},
	"train-fleet": {
		task: "SmallCNN CIFAR-10", devices: []string{"V100", "TPUv2"}, variants: []string{"IMPL", "CONTROL"},
		replicas: 2, fleet: true,
	},
	"serve-warm": {
		task: "SmallCNN CIFAR-10", devices: []string{"V100", "TPUv2"}, variants: []string{"IMPL", "CONTROL", "ALGO"},
		replicas: 3, epochs: 2, serve: true,
	},
}

// gridSeed derives the seed of the i-th grid of one stream of a run.
func gridSeed(seed uint64, stream string, i int) uint64 {
	h := sha256.New()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], seed)
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	h.Write([]byte(stream))
	s := binary.LittleEndian.Uint64(h.Sum(nil)) >> 1
	return s | 1 // 0 would select the server's default seed
}

// mix hashes (seed, seq) into the draw that picks an operation.
func mix(seed uint64, seq int) uint64 {
	x := seed ^ uint64(seq)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

func (w workload) spec(devices, variants []string, epochs int) grid.Spec {
	s := grid.Spec{Tasks: []string{w.task}, Devices: devices, Variants: variants}
	if epochs > 0 {
		s.Recipes = []grid.Recipe{{Epochs: epochs}}
	}
	return s
}

// mainGrid is the i-th grid a run submits: a cold grid with fresh seeds
// for the train-* workloads, a fixture grid for serve-warm.
func (w workload) mainGrid(seed uint64, i int) gridReq {
	stream := "cold"
	if w.serve {
		stream = "fixture"
	}
	return gridReq{spec: w.spec(w.devices, w.variants, w.epochs), replicas: w.replicas, seed: gridSeed(seed, stream, i)}
}

// warmupGrid is the one-epoch grid every train-* set-up runs: it fills
// the dataset cache and the pools.
func (w workload) warmupGrid(seed uint64) gridReq {
	return gridReq{spec: w.spec(w.devices[:1], w.variants[:1], 1), replicas: 2, seed: gridSeed(seed, "warmup", 0)}
}

// fixtureGrids is how many short-epoch grids fill serve-warm's ledger
// and store.
const fixtureGrids = 2

// orderings returns every ordered selection of n distinct elements of xs.
func orderings(xs []string, n int) [][]string {
	var out [][]string
	var rec func(cur []string, used []bool)
	rec = func(cur []string, used []bool) {
		if len(cur) == n {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for i, x := range xs {
			if !used[i] {
				used[i] = true
				rec(append(cur, x), used)
				used[i] = false
			}
		}
	}
	rec(nil, make([]bool, len(xs)))
	return out
}

// metricLists are the orderings of all the grid metric columns or all but
// one, except the default list: each renders the same stability figures
// under a new result key, at the same cost.
var metricLists = func() [][]string {
	names := experiments.MetricNames()
	var out [][]string
	for _, l := range append(orderings(names, len(names)-1), orderings(names, len(names))...) {
		if fmt.Sprint(l) != fmt.Sprint(grid.DefaultMetrics) {
			out = append(out, l)
		}
	}
	return out
}()

// warmShape is how many variants every ledger-served re-slice has (or
// all the base's, if it has fewer): with one device and all the base's
// replicas, every re-slice of a base has the same size and costs the
// same, so the median of their times does not hinge on which sizes a run
// happened to draw.
const warmShape = 2

// warmVariant is the k-th ledger-served re-slice of base: one of its
// devices, an ordered selection of its variants, all its replicas, and a
// metric list. Every replica it needs is already in the ledger, so
// nothing trains. The k below warmVariants(base) give distinct result
// keys.
func warmVariant(base gridReq, k int) gridReq {
	devs := orderings(base.spec.Devices, 1)
	vars := orderings(base.spec.Variants, min(warmShape, len(base.spec.Variants)))
	g := base
	g.spec.Metrics = metricLists[k%len(metricLists)]
	k /= len(metricLists)
	g.spec.Variants = vars[k%len(vars)]
	k /= len(vars)
	g.spec.Devices = devs[k%len(devs)]
	return g
}

// warmVariants is how many distinct re-slices warmVariant makes of base.
func warmVariants(base gridReq) int {
	vars := orderings(base.spec.Variants, min(warmShape, len(base.spec.Variants)))
	return len(metricLists) * len(vars) * len(base.spec.Devices)
}

// imageEpochs is the training a grid stands for: every replica of every
// cell times its epochs times the training split size.
func imageEpochs(g gridReq, trainN int) (float64, error) {
	plan, cfg, err := g.plan()
	if err != nil {
		return 0, err
	}
	return float64(plan.Estimate(cfg).TotalEpochs) * float64(trainN), nil
}

// catalog is what the client knows the server has completed: result
// keys with the grid that produced them and the digest of their tables,
// and recent job IDs.
type catalog struct {
	mu       sync.RWMutex
	keys     []string
	grids    map[string]gridReq
	digest   map[string]string
	jobKey   map[string]string
	jobRing  []string
	jobNext  int
	verified map[string][32]byte // verified reply body hashes, by "r:"+key or "j:"+id
}

// jobRingSize bounds the job IDs reads pick from: recent enough that the
// server (which retains its last 256 finished jobs) still has them.
const jobRingSize = 64

func newCatalog() *catalog {
	return &catalog{grids: map[string]gridReq{}, digest: map[string]string{}, jobKey: map[string]string{}, verified: map[string][32]byte{}}
}

func (c *catalog) addResult(key string, g gridReq, digest string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.digest[key]; !ok {
		c.keys = append(c.keys, key)
		c.grids[key] = g
		c.digest[key] = digest
	}
}

func (c *catalog) addJob(id, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobKey[id] = key
	if len(c.jobRing) < jobRingSize {
		c.jobRing = append(c.jobRing, id)
	} else {
		c.jobRing[c.jobNext] = id
		c.jobNext = (c.jobNext + 1) % jobRingSize
	}
}

func (c *catalog) pickKey(h uint64) (string, gridReq, string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	k := c.keys[h%uint64(len(c.keys))]
	return k, c.grids[k], c.digest[k]
}

func (c *catalog) pickJob(h uint64) (string, string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id := c.jobRing[h%uint64(len(c.jobRing))]
	k := c.jobKey[id]
	return id, c.digest[k]
}

// checkBody verifies a reply body against the expected tables digest:
// a body byte-identical to one already verified passes at once; any
// other is decoded and its tables compared.
func (c *catalog) checkBody(tag string, raw []byte, want string, tables func([]byte) (*report.Result, error)) error {
	sum := sha256.Sum256(raw)
	c.mu.RLock()
	seen, ok := c.verified[tag]
	c.mu.RUnlock()
	if ok && seen == sum {
		return nil
	}
	r, err := tables(raw)
	if err != nil {
		return err
	}
	if got := tablesDigest(r); got != want {
		return fmt.Errorf("%s: tables digest %s, stored result has %s", tag, got, want)
	}
	c.mu.Lock()
	c.verified[tag] = sum
	c.mu.Unlock()
	return nil
}

// opKind classifies an open-loop operation.
type opKind int

const (
	opResult opKind = iota
	opJob
	opCachedGrid
	opWarmGrid
)

func kindOf(seed uint64, seq int) opKind {
	if seq%warmEvery == warmEvery/2 {
		return opWarmGrid
	}
	switch h := mix(seed, seq) % (mixGrid + mixJob + mixResult); {
	case h < mixGrid:
		return opCachedGrid
	case h < mixGrid+mixJob:
		return opJob
	}
	return opResult
}

// run is one benchmark run's state.
type run struct {
	name   string
	w      workload
	seed   uint64
	traced bool
	dir    string // scratch directory inside the checkout
	trainN int

	cat       *catalog
	warmBases []gridReq
	warmNext  atomic.Int64

	mu        sync.Mutex
	problems  []string // correctness failures: any one fails the run
	errs      []string // first few failed operations, for the record
	warm      []warmGrid
	mains     []mainGrid
	digests   [][2]string    // every digest a default-seed check looked at
	sample    *report.Result // the first grid result, for the render probe
	attempted atomic.Int64
	failed    atomic.Int64
}

// warmGrid is one ledger-served grid the open loop submitted.
type warmGrid struct {
	g      gridReq
	key    string
	digest string
}

// mainGrid is one grid of the closed loop.
type mainGrid struct {
	g      gridReq
	dur    time.Duration
	img    float64
	result *report.Result
}

func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) opFailed(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
}

// op performs open-loop operation seq.
func (r *run) op(c *client) opFunc {
	return func(ctx context.Context, seq int) (time.Time, bool) {
		r.attempted.Add(1)
		h := mix(r.seed^0x5bd1e995, seq)
		var end time.Time
		var err error
		switch kindOf(r.seed, seq) {
		case opResult:
			key, _, want := r.cat.pickKey(h)
			var raw []byte
			if raw, end, err = c.doAt(ctx, http.MethodGet, "/v1/results/"+key, nil); err == nil {
				if perr := r.cat.checkBody("r:"+key, raw, want, decodeRun); perr != nil {
					r.problem("GET /v1/results/%s: %v", key, perr)
				}
			}
		case opJob:
			id, want := r.cat.pickJob(h)
			var raw []byte
			if raw, end, err = c.doAt(ctx, http.MethodGet, "/v1/jobs/"+id, nil); err == nil {
				if perr := r.cat.checkBody("j:"+id, raw, want, decodeSnapshot); perr != nil {
					r.problem("GET /v1/jobs/%s: %v", id, perr)
				}
			}
		case opCachedGrid:
			_, end, err = r.cachedGrid(ctx, c, h)
		case opWarmGrid:
			end, err = r.warmGrid(ctx, c)
		}
		if err != nil {
			r.opFailed(err)
			return end, false
		}
		return end, true
	}
}

// cachedGrid re-submits a grid the server has stored, picked by h, and
// checks that the server serves it from the store, unchanged. It returns
// the grid and when the reply had been read.
func (r *run) cachedGrid(ctx context.Context, c *client, h uint64) (gridReq, time.Time, error) {
	key, g, want := r.cat.pickKey(h)
	resp, end, err := c.submitGrid(ctx, g)
	if err != nil {
		return g, end, err
	}
	switch {
	case resp.Key != key || resp.State != jobs.StateDone || !resp.Cached:
		r.problem("cached POST /v1/grid for %s: key %s, state %s, cached %t", key, resp.Key, resp.State, resp.Cached)
	case tablesDigest(resp.Result) != want:
		r.problem("cached POST /v1/grid for %s: tables differ from the stored result", key)
	default:
		r.cat.addJob(resp.ID, key)
	}
	return g, end, nil
}

// warmGrid submits the next ledger-served grid and waits for it. It
// returns when the reply that showed the grid done had been read.
func (r *run) warmGrid(ctx context.Context, c *client) (time.Time, error) {
	k := int(r.warmNext.Add(1) - 1)
	r.mu.Lock()
	bases := r.warmBases
	r.mu.Unlock()
	base, i := bases[k%len(bases)], k/len(bases)
	// The last setups re-slices of each base belong to the set-ups.
	if i >= warmVariants(base)-setups {
		return time.Time{}, fmt.Errorf("ledger-served grid %d: base grid has only %d distinct re-slices", i, warmVariants(base)-setups)
	}
	g := warmVariant(base, i)
	start := time.Now()
	snap, dur, err := c.runGrid(ctx, g, warmPoll)
	end := start.Add(dur)
	if err != nil {
		return end, err
	}
	d := tablesDigest(snap.Result)
	r.cat.addResult(snap.Key, g, d)
	r.cat.addJob(snap.ID, snap.Key)
	r.mu.Lock()
	r.warm = append(r.warm, warmGrid{g: g, key: snap.Key, digest: d})
	r.mu.Unlock()
	return end, nil
}

func decodeRun(raw []byte) (*report.Result, error) {
	var v server.RunResponse
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return v.Result, nil
}

func decodeSnapshot(raw []byte) (*report.Result, error) {
	var v jobs.Snapshot
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	if v.State != jobs.StateDone {
		return nil, fmt.Errorf("job %s is %s", v.ID, v.State)
	}
	return v.Result, nil
}

// dirs are one server's store and ledger directories.
type dirs struct{ store, ledger string }

func (r *run) newDirs(tag string) (dirs, error) {
	base, err := os.MkdirTemp(r.dir, tag+"-")
	if err != nil {
		return dirs{}, err
	}
	return dirs{filepath.Join(base, "store"), filepath.Join(base, "ledger")}, nil
}

// buildFixture trains serve-warm's fixture grids on a server that is
// then closed: the restarted server serves them without training.
func (r *run) buildFixture(ctx context.Context, d dirs) ([]gridReq, error) {
	h, err := startHost(hostOpts{storeDir: d.store, ledgerDir: d.ledger})
	if err != nil {
		return nil, err
	}
	defer h.close()
	c := newClient(h.base, maxConns())
	defer c.close()
	var out []gridReq
	for i := 0; i < fixtureGrids; i++ {
		g := r.w.mainGrid(r.seed, i)
		snap, _, err := c.runGrid(ctx, g, 5*time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("fixture grid %d: %w", i, err)
		}
		r.cat.addResult(snap.Key, g, tablesDigest(snap.Result))
		r.checkDigest(fmt.Sprintf("fixture-%d", i), snap.Result)
		if r.sample == nil {
			r.sample = snap.Result
		}
		out = append(out, g)
	}
	return out, nil
}

// setup starts the server the measured phase uses. For serve-warm it is
// a restart over the fixture's directories; for train-* a server over
// fresh directories. The warm-up fills the dataset cache and the pools:
// serve-warm re-submits its fixture grids (served from the store), reads
// their results and submits one ledger-served grid; train-* trains the
// one-epoch warm-up grid.
func (r *run) setup(ctx context.Context, d dirs, k int, fixture []gridReq) (*host, *client, error) {
	h, err := startHost(hostOpts{storeDir: d.store, ledgerDir: d.ledger, fleet: r.w.fleet})
	if err != nil {
		return nil, nil, err
	}
	c := newClient(h.base, maxConns())
	fail := func(err error) (*host, *client, error) {
		c.close()
		h.close()
		return nil, nil, err
	}
	if r.w.serve {
		for _, g := range fixture {
			resp, _, err := c.submitGrid(ctx, g)
			if err != nil {
				return fail(err)
			}
			if resp.State != jobs.StateDone || !resp.Cached {
				return fail(fmt.Errorf("restarted server did not serve fixture grid %s from its store (state %s)", resp.Key, resp.State))
			}
			r.cat.addJob(resp.ID, resp.Key)
			raw, err := c.do(ctx, http.MethodGet, "/v1/results/"+resp.Key, nil)
			if err != nil {
				return fail(err)
			}
			r.cat.mu.RLock()
			want := r.cat.digest[resp.Key]
			r.cat.mu.RUnlock()
			if err := r.cat.checkBody("r:"+resp.Key, raw, want, decodeRun); err != nil {
				r.problem("after restart: %v", err)
			}
		}
		// The set-up's own ledger-served grid uses a re-slice the
		// measured phase never reaches.
		g := warmVariant(fixture[0], warmVariants(fixture[0])-1-k)
		snap, _, err := c.runGrid(ctx, g, warmPoll)
		if err != nil {
			return fail(err)
		}
		r.cat.addResult(snap.Key, g, tablesDigest(snap.Result))
		r.cat.addJob(snap.ID, snap.Key)
		r.warm = append(r.warm, warmGrid{g: g, key: snap.Key, digest: tablesDigest(snap.Result)})
		return h, c, nil
	}
	g := r.w.warmupGrid(r.seed)
	snap, _, err := c.runGrid(ctx, g, 2*time.Millisecond)
	if err != nil {
		return fail(fmt.Errorf("warm-up grid: %w", err))
	}
	r.cat.addResult(snap.Key, g, tablesDigest(snap.Result))
	r.cat.addJob(snap.ID, snap.Key)
	return h, c, nil
}

// maxConns is the client's connection bound: one per CPU.
func maxConns() int { return max(1, numCPU()) }

// measured is what the measured phase observed.
type measured struct {
	windows   []loopResult // one per stretch of open-loop serving
	elapsed   time.Duration
	before    runtimeSnap
	after     runtimeSnap
	heapPeaks []float64   // peak heap size of each cold grid (train-*) or window (serve-warm), bytes
	busy      runtimeSnap // runtime deltas summed over the cold grids (train-*)
	stored    []mainGrid  // serve-warm's re-submitted stored grids
	metrics   server.MetricsResponse
	stats     server.StatsResponse
	work      []workCall
}

// storeBatch is how many stored grids serve-warm re-submits one after
// another, on an otherwise idle server, after each window of its open
// loop: its grid_s is their median time from POST /v1/grid to the reply,
// which shows them done. Taken in batches spread over the run, they see
// the host as the open loop does: on a shared 2-vCPU VM, one short batch
// at the start spread by a quarter of its median across runs.
const storeBatch = 125

// window is one stretch of open-loop serving: the burst after each cold
// grid on train-*, and the unit serve-warm's measured phase is cut into.
// At readRate it holds 1200 reads, enough for their p99 to leave 10
// samples beyond; bench.read_p99_ms is the median of the windows' p99s,
// so one stall does not decide a run.
const window = 2500 * time.Millisecond

// warmPoll is how often a ledger-served grid, which takes a few
// milliseconds, is polled for completion: the finest step the Go
// runtime's timers keep when the process idles. Polling back to back
// would hold one of the client's nproc connections for the whole grid.
const warmPoll = time.Millisecond

// measure runs the measured phase. On serve-warm the open loop of cached
// reads and ledger-served grids runs window after window, each followed
// by a batch of stored grids re-submitted one after another. On
// train-* the phase is a closed loop of cold grids, each submitted once the
// previous one is done; after each, the open loop serves a burst of
// reads and ledger-served re-slices of the grid just trained, on an
// otherwise idle server — a user exploring the results of a training
// job. Training and serving are timed apart, so a kernel change moves
// grid_s and not the read latencies, and a serving change the reverse.
func (r *run) measure(ctx context.Context, h *host, c *client, seconds time.Duration) (measured, error) {
	var m measured
	heap := startHeapSampler(5 * time.Millisecond)
	m.before = readRuntime()
	start := time.Now()
	ol := openLoop{rate: readRate, workers: 4 * maxConns()}
	serve := func() {
		stop := make(chan struct{})
		t := time.AfterFunc(window, func() { close(stop) })
		defer t.Stop()
		m.windows = append(m.windows, ol.run(ctx, stop, r.op(c)))
	}
	if r.w.serve {
		for time.Since(start) < seconds && ctx.Err() == nil {
			serve()
			m.heapPeaks = append(m.heapPeaks, float64(heap.mark()))
			for i := 0; i < storeBatch && ctx.Err() == nil; i++ {
				r.attempted.Add(1)
				t0 := time.Now()
				g, end, err := r.cachedGrid(ctx, c, mix(r.seed^0x2545f491, len(m.stored)))
				if err != nil {
					r.opFailed(err)
					continue
				}
				img, err := imageEpochs(g, r.trainN)
				if err != nil {
					return m, err
				}
				m.stored = append(m.stored, mainGrid{g: g, dur: end.Sub(t0), img: img})
			}
		}
	} else {
		for i := 0; time.Since(start) < seconds && ctx.Err() == nil; i++ {
			g := r.w.mainGrid(r.seed, i)
			r.attempted.Add(1)
			rt0 := readRuntime()
			heap.mark()
			snap, dur, err := c.runGrid(ctx, g, 5*time.Millisecond)
			m.busy = m.busy.add(rt0.delta(readRuntime()))
			m.heapPeaks = append(m.heapPeaks, float64(heap.mark()))
			if err != nil {
				r.opFailed(err)
				continue
			}
			img, err := imageEpochs(g, r.trainN)
			if err != nil {
				return m, err
			}
			r.cat.addResult(snap.Key, g, tablesDigest(snap.Result))
			r.cat.addJob(snap.ID, snap.Key)
			r.mu.Lock()
			r.mains = append(r.mains, mainGrid{g: g, dur: dur, img: img, result: snap.Result})
			if r.sample == nil {
				r.sample = snap.Result
			}
			r.warmBases = []gridReq{g}
			r.mu.Unlock()
			r.warmNext.Store(0)
			serve()
		}
	}
	m.elapsed = time.Since(start)
	m.after = readRuntime()
	heap.finish()
	if err := ctx.Err(); err != nil {
		return m, err
	}
	var err error
	if m.metrics, err = c.metricsReply(ctx); err != nil {
		return m, err
	}
	if m.stats, err = c.statsReply(ctx); err != nil {
		return m, err
	}
	if h.workRT != nil {
		m.work = h.workRT.snapshot()
	}
	return m, nil
}

// latencies splits one window's samples into read and warm-grid
// latencies in milliseconds; a failed operation counts as missing any
// limit.
func (r *run) latencies(lr loopResult) (reads, warm []float64) {
	for _, s := range lr.samples {
		v := ms(s.latency)
		if !s.ok {
			v = math.Inf(1)
		}
		if kindOf(r.seed, s.seq) == opWarmGrid {
			warm = append(warm, v)
		} else {
			reads = append(reads, v)
		}
	}
	return reads, warm
}

// finite caps a latency that includes failed operations.
func finite(v float64) float64 { return math.Min(v, maxLatencyMs) }

// verifyWarm recomputes every ledger-served grid in process from the
// run's ledger, read back from disk, and checks the server returned the
// same tables without training anything.
func (r *run) verifyWarm(ctx context.Context, ledgerDir string) error {
	led, err := ledger.Open(ledgerDir, 1<<20)
	if err != nil {
		return err
	}
	ref := experiments.NewPopulations(0)
	ref.SetLedger(led)
	for _, wg := range r.warm {
		plan, cfg, err := wg.g.plan()
		if err != nil {
			return err
		}
		res, err := ref.RunPlan(ctx, plan, cfg)
		if err != nil {
			return err
		}
		if got := tablesDigest(res); got != wg.digest {
			r.problem("ledger-served grid %s: server tables %s, recomputed %s", wg.key, wg.digest, got)
		}
	}
	if n := ref.Trains(); n != 0 {
		r.problem("ledger-served grids needed %d replicas the ledger did not hold", n)
	}
	return nil
}
