package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/grid"
	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/server"
)

// hostOpts configures one in-process server.
type hostOpts struct {
	storeDir, ledgerDir string
	fleet               bool // coordinator mode, trained by fleetWorkers workers
}

// fleetWorkers is how many in-process fleet workers a fleet host runs,
// each with one trainer.
const fleetWorkers = 2

// host is the real server (server.New + Handler) on a loopback listener.
type host struct {
	srv  *server.Server
	pops *experiments.Populations
	hs   *http.Server
	base string

	served chan struct{} // closed when Serve returns

	workerStop context.CancelFunc
	workerWG   sync.WaitGroup
	workRT     *timedTransport // times every /v1/work/* call (fleet hosts)
}

// startHost opens the store and ledger, starts serving on 127.0.0.1 and,
// for a fleet host, joins the workers.
func startHost(o hostOpts) (*host, error) {
	pops := experiments.NewPopulations(0)
	srv, err := server.New(server.Options{
		StoreDir:  o.storeDir,
		LedgerDir: o.ledgerDir,
		// Every result the run produces stays addressable; the default
		// capacity would evict the fixture's results under warm-grid
		// traffic.
		CacheSize:   4096,
		Populations: pops,
		// Ledger-served grids must not queue behind a cold grid that
		// trains for seconds.
		Workers: 4,
		Fleet:   o.fleet,
		// Short leases, so a unit of a second or two heartbeats a few
		// times and the heartbeat path is exercised.
		LeaseTTL: 1500 * time.Millisecond,
	})
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	h := &host{srv: srv, pops: pops, base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	h.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	if o.fleet {
		ctx, cancel := context.WithCancel(context.Background())
		h.workerStop = cancel
		h.workRT = newTimedTransport()
		for i := 0; i < fleetWorkers; i++ {
			w := &fleet.Worker{
				Base:     h.base,
				Name:     fmt.Sprintf("bench-worker-%d", i+1),
				Trainers: 1,
				Wait:     time.Second,
				Client:   &http.Client{Transport: h.workRT},
				Pops:     experiments.NewPopulations(0),
			}
			h.workerWG.Add(1)
			go func() {
				defer h.workerWG.Done()
				_ = w.Run(ctx) // returns ctx's error once stopped
			}()
		}
	}
	return h, nil
}

// close stops the workers, then the listener, then the server, and waits
// for each to finish.
func (h *host) close() {
	if h.workerStop != nil {
		h.workerStop()
		h.workerWG.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // a timeout only leaves idle keep-alives behind
	<-h.served
	h.srv.Close()
	if h.workRT != nil {
		h.workRT.base.CloseIdleConnections()
	}
}

// workCall is one timed /v1/work/* round trip.
type workCall struct {
	kind    string // lease, heartbeat or complete
	dur     time.Duration
	upBytes int64
}

// timedTransport records every fleet worker call.
type timedTransport struct {
	base  *http.Transport
	mu    sync.Mutex
	calls []workCall
}

func newTimedTransport() *timedTransport {
	return &timedTransport{base: &http.Transport{MaxIdleConnsPerHost: fleetWorkers}}
}

// RoundTrip implements http.RoundTripper.
func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	kind := "other"
	switch {
	case strings.HasSuffix(r.URL.Path, "/lease"):
		kind = "lease"
	case strings.HasSuffix(r.URL.Path, "/heartbeat"):
		kind = "heartbeat"
	case strings.HasSuffix(r.URL.Path, "/complete"):
		kind = "complete"
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	// The call ends when its reply has been read; wrap the body so the
	// timing covers it.
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.mu.Lock()
		t.calls = append(t.calls, workCall{kind: kind, dur: time.Since(start), upBytes: r.ContentLength})
		t.mu.Unlock()
	}}
	return resp, nil
}

// snapshot returns the calls recorded so far.
func (t *timedTransport) snapshot() []workCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]workCall(nil), t.calls...)
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// client drives the server over HTTP with at most maxConns connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, maxConns int) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errStatus is a non-2xx reply.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends one request and returns the body of a 2xx reply.
func (c *client) do(ctx context.Context, method, path string, in any) ([]byte, error) {
	raw, _, err := c.doAt(ctx, method, path, in)
	return raw, err
}

// doAt is do that also returns when the reply had been read in full: the
// end of the request as a user sees it, before the benchmark checks the
// reply.
func (c *client) doAt(ctx context.Context, method, path string, in any) ([]byte, time.Time, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, time.Time{}, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, time.Time{}, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	recv := time.Now()
	if err != nil {
		return nil, recv, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, recv, &errStatus{code: resp.StatusCode, body: strings.TrimSpace(string(raw))}
	}
	return raw, recv, nil
}

// gridReq is one grid submission: the spec plus its run configuration.
type gridReq struct {
	spec     grid.Spec
	replicas int
	seed     uint64
}

// plan compiles the grid and resolves its run configuration, exactly as
// the server does.
func (g gridReq) plan() (*experiments.Plan, experiments.Config, error) {
	p, err := experiments.CompileSpec(g.spec)
	if err != nil {
		return nil, experiments.Config{}, err
	}
	cfg := experiments.DefaultConfig()
	cfg.Scale = benchScaleValue
	cfg.Replicas = g.replicas
	cfg.Seed = g.seed
	return p, p.Config(cfg), nil
}

// submitGrid posts a grid and returns the server's reply and when it
// had been read.
func (c *client) submitGrid(ctx context.Context, g gridReq) (server.GridResponse, time.Time, error) {
	var out server.GridResponse
	body := server.GridRequest{Grid: g.spec, RunRequest: server.RunRequest{Scale: benchScale, Replicas: g.replicas, Seed: g.seed}}
	raw, recv, err := c.doAt(ctx, http.MethodPost, "/v1/grid", body)
	if err != nil {
		return out, recv, err
	}
	return out, recv, json.Unmarshal(raw, &out)
}

// job fetches a job snapshot and returns when it had been read.
func (c *client) job(ctx context.Context, id string) (jobs.Snapshot, time.Time, error) {
	var out jobs.Snapshot
	raw, recv, err := c.doAt(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return out, recv, err
	}
	return out, recv, json.Unmarshal(raw, &out)
}

// waitJob polls a job every interval until it is terminal and returns
// its final snapshot and when that had been read; a job that ends other
// than done is an error.
func (c *client) waitJob(ctx context.Context, id string, interval time.Duration) (jobs.Snapshot, time.Time, error) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		snap, recv, err := c.job(ctx, id)
		if err != nil {
			return snap, recv, err
		}
		if snap.State.Terminal() {
			if snap.State != jobs.StateDone || snap.Result == nil {
				return snap, recv, fmt.Errorf("job %s ended %s: %v", id, snap.State, snap.Error)
			}
			return snap, recv, nil
		}
		select {
		case <-ctx.Done():
			return snap, recv, ctx.Err()
		case <-t.C:
		}
	}
}

// runGrid submits a grid and waits for it; it returns the finished
// snapshot and the time from submission until the reply that showed it
// done had been read.
func (c *client) runGrid(ctx context.Context, g gridReq, interval time.Duration) (jobs.Snapshot, time.Duration, error) {
	start := time.Now()
	resp, recv, err := c.submitGrid(ctx, g)
	if err != nil {
		return jobs.Snapshot{}, 0, err
	}
	snap := resp.Snapshot
	if !snap.State.Terminal() {
		snap, recv, err = c.waitJob(ctx, resp.ID, interval)
	} else if snap.State != jobs.StateDone || snap.Result == nil {
		err = fmt.Errorf("grid %s ended %s", resp.Key, snap.State)
	}
	return snap, recv.Sub(start), err
}

// metricsReply fetches /v1/metrics.
func (c *client) metricsReply(ctx context.Context) (server.MetricsResponse, error) {
	var out server.MetricsResponse
	raw, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(raw, &out)
}

// statsReply fetches /v1/stats.
func (c *client) statsReply(ctx context.Context) (server.StatsResponse, error) {
	var out server.StatsResponse
	raw, err := c.do(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(raw, &out)
}

// tablesDigest is the identity of a result's content: a hash of its
// tables, which excludes the wall time and the job bookkeeping that
// differ between runs of the same grid.
func tablesDigest(r *report.Result) string {
	if r == nil {
		return ""
	}
	b, err := json.Marshal(r.Tables)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
