package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
)

// DefaultLeaseWait is how long a worker's lease request long-polls an
// empty queue before returning and re-polling.
const DefaultLeaseWait = 15 * time.Second

// defaultBackoff is the base reconnect/re-upload backoff when Options
// does not set one (doubled per attempt with jitter — see sleepBackoff).
const defaultBackoff = 200 * time.Millisecond

// maxBackoff caps the exponential growth of reconnect/re-upload delays.
const maxBackoff = 5 * time.Second

// uploadAttempts bounds complete-upload retries per unit. Past it the
// worker drops the unit; the lease expires and another worker (or this
// one, later) re-trains it — determinism makes that merely wasteful,
// never wrong.
const uploadAttempts = 6

// Worker is the fleet's training client: a pull → train → upload loop
// against a coordinator's work endpoints. Each of Trainers goroutines
// independently leases up to Batch units, trains them with
// Populations.TrainUnit (bit-identical to coordinator-local training),
// heartbeats every held lease at TTL/3, and uploads results as
// checkpoint-codec records. Transport failures back off (capped,
// jittered — see sleepBackoff) and never kill the loop; the faults
// points "fleet.lease" (fail the pull) and "fleet.complete" (corrupt
// the upload bytes) exist for chaos tests.
//
// Configure the fields before Run; zero values pick the documented
// defaults. A Worker runs until its context ends.
type Worker struct {
	// Base is the coordinator's base URL, e.g. "http://host:8080".
	Base string
	// Name identifies this worker in leases and stats (default:
	// "<hostname>-<pid>").
	Name string
	// Trainers is the number of concurrent training loops (default 1).
	Trainers int
	// Batch is how many units each trainer pulls per lease (default 1;
	// trainers work a batch sequentially while heartbeating all of it).
	Batch int
	// Backoff is the base retry backoff (default 200ms).
	Backoff time.Duration
	// Wait bounds lease long-polling (default DefaultLeaseWait).
	Wait time.Duration
	// Client is the HTTP client (default: a client with no global
	// timeout — every request carries its own context deadline).
	Client *http.Client
	// Pops is the population cache units resolve against (default: a
	// fresh isolated cache, so the worker's dataset cache warms up
	// per-process).
	Pops *experiments.Populations
	// Logf, when set, receives progress lines (lease/complete/retry).
	Logf func(format string, args ...any)

	trains atomic.Int64
}

// Trains reports how many replicas this worker has trained to
// completion (it self-reports the same number to the coordinator on
// every lease and heartbeat).
func (w *Worker) Trains() int64 { return w.trains.Load() }

// Run normalizes defaults, starts the trainer loops and blocks until
// ctx ends. It returns ctx's error — a worker has no other way to
// finish.
func (w *Worker) Run(ctx context.Context) error {
	if w.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		w.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if w.Trainers <= 0 {
		w.Trainers = 1
	}
	if w.Batch <= 0 {
		w.Batch = 1
	}
	if w.Backoff <= 0 {
		w.Backoff = defaultBackoff
	}
	if w.Wait <= 0 {
		w.Wait = DefaultLeaseWait
	}
	if w.Client == nil {
		w.Client = &http.Client{}
	}
	if w.Pops == nil {
		w.Pops = experiments.NewPopulations(0)
	}
	w.Base = strings.TrimRight(w.Base, "/")
	var wg sync.WaitGroup
	for i := 0; i < w.Trainers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// loop is one trainer: lease a batch, work it, repeat. Lease failures
// (network, coordinator restarting, armed faults) back off and retry
// forever — a worker outlives its coordinator's outages.
func (w *Worker) loop(ctx context.Context) {
	attempt := 0
	for ctx.Err() == nil {
		if err := faults.Fire("fleet.lease"); err != nil {
			w.logf("lease: %v", err)
			attempt++
			if !sleepBackoff(ctx, w.Backoff, attempt-1) {
				return
			}
			continue
		}
		resp, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.logf("lease: %v", err)
			attempt++
			if !sleepBackoff(ctx, w.Backoff, attempt-1) {
				return
			}
			continue
		}
		attempt = 0
		ttl := time.Duration(resp.TTLMS) * time.Millisecond
		for _, lu := range resp.Units {
			w.process(ctx, lu, ttl)
		}
	}
}

// process trains one leased unit under a heartbeat and uploads the
// result. A heartbeat answer of "gone" or "done" cancels the training
// mid-epoch (the unit was stolen or already merged); a genuine training
// failure is reported to the coordinator as a permanent unit failure.
func (w *Worker) process(ctx context.Context, lu Leased, ttl time.Duration) {
	uctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var gone atomic.Bool
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeats(uctx, cancel, lu.ID, ttl, &gone)
	}()
	res, err := w.Pops.TrainUnit(uctx, lu.Unit)
	cancel()
	<-hbDone
	if err != nil {
		if ctx.Err() != nil || gone.Load() {
			return // shutting down, or the unit is no longer ours
		}
		w.logf("unit %s failed: %v", lu.ID, err)
		w.fail(ctx, lu.ID, err)
		return
	}
	w.trains.Add(1)
	w.upload(ctx, lu, res)
}

// heartbeats extends the lease on id every TTL/3 until ctx ends or the
// coordinator reports the unit gone (then cancel aborts the training).
// Transport errors are tolerated: a missed heartbeat only matters if
// enough of them miss that the lease expires, and then the steal path
// handles it.
func (w *Worker) heartbeats(ctx context.Context, cancel func(), id string, ttl time.Duration, gone *atomic.Bool) {
	ival := ttl / 3
	if ival < 10*time.Millisecond {
		ival = 10 * time.Millisecond
	}
	t := time.NewTicker(ival)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			status, err := w.heartbeat(ctx, id)
			if err != nil {
				continue
			}
			if status != HeartbeatOK {
				gone.Store(true)
				cancel()
				return
			}
		}
	}
}

// upload encodes the result as a checkpoint record and posts it,
// retrying with backoff: the coordinator rejects anything that fails
// CRC (the "fleet.complete" fault point tears the bytes in chaos
// tests), and a retried upload re-encodes from the intact in-memory
// result, so a torn attempt costs one round trip, never the unit.
func (w *Worker) upload(ctx context.Context, lu Leased, res *core.RunResult) {
	var buf bytes.Buffer
	if err := checkpoint.EncodeResult(&buf, lu.Unit.Cell, res); err != nil {
		w.fail(ctx, lu.ID, err)
		return
	}
	enc := buf.Bytes()
	for attempt := 0; attempt < uploadAttempts && ctx.Err() == nil; attempt++ {
		body, err := faults.FireWrite("fleet.complete", enc)
		if err == nil {
			var status string
			status, err = w.complete(ctx, lu.ID, body)
			if err == nil {
				w.logf("completed %s (%s)", lu.ID, status)
				return
			}
		}
		w.logf("upload %s: %v", lu.ID, err)
		if !sleepBackoff(ctx, w.Backoff, attempt) {
			return
		}
	}
	w.logf("upload %s: giving up; lease will expire and the unit will be re-trained", lu.ID)
}

// sleepBackoff waits out the attempt'th retry delay: base doubled per
// attempt, capped at maxBackoff, with ±25% jitter so a fleet of workers
// reconnecting to a restarted coordinator decorrelates. It returns false
// if ctx ended first.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int) bool {
	d := base << attempt
	if d > maxBackoff || d <= 0 { // <= 0: shift overflow
		d = maxBackoff
	}
	jitter := time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	select {
	case <-time.After(d + jitter):
		return true
	case <-ctx.Done():
		return false
	}
}

// lease pulls up to Batch units, long-polling an empty queue.
func (w *Worker) lease(ctx context.Context) (*LeaseResponse, error) {
	req := LeaseRequest{Worker: w.Name, Max: w.Batch, WaitMS: w.Wait.Milliseconds(), Trains: w.trains.Load()}
	var resp LeaseResponse
	if err := w.postJSON(ctx, "/v1/work/lease", req, &resp, w.Wait+10*time.Second); err != nil {
		return nil, err
	}
	return &resp, nil
}

// heartbeat reports liveness for one held unit.
func (w *Worker) heartbeat(ctx context.Context, id string) (string, error) {
	req := HeartbeatRequest{Worker: w.Name, Trains: w.trains.Load()}
	var resp HeartbeatResponse
	if err := w.postJSON(ctx, "/v1/work/"+id+"/heartbeat", req, &resp, 10*time.Second); err != nil {
		return "", err
	}
	return resp.Status, nil
}

// complete uploads one encoded result record.
func (w *Worker) complete(ctx context.Context, id string, body []byte) (string, error) {
	rctx, cancelReq := context.WithTimeout(ctx, 30*time.Second)
	defer cancelReq()
	u := w.Base + "/v1/work/" + id + "/complete?worker=" + url.QueryEscape(w.Name)
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	hr, err := w.Client.Do(req)
	if err != nil {
		return "", err
	}
	defer hr.Body.Close()
	var resp CompleteResponse
	if err := readJSON(hr, &resp); err != nil {
		return "", err
	}
	return resp.Status, nil
}

// fail reports a permanent unit failure (best effort — if even this
// fails, the lease expires and another worker hits the same wall).
func (w *Worker) fail(ctx context.Context, id string, trainErr error) {
	var resp CompleteResponse
	_ = w.postJSON(ctx, "/v1/work/"+id+"/complete", FailRequest{Worker: w.Name, Error: trainErr.Error()}, &resp, 10*time.Second)
}

// postJSON posts a JSON body to path and decodes the JSON reply,
// turning non-2xx statuses (the server's {"error": ...} shape) into
// errors.
func (w *Worker) postJSON(ctx context.Context, path string, in, out any, timeout time.Duration) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	rctx, cancelReq := context.WithTimeout(ctx, timeout)
	defer cancelReq()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.Base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	hr, err := w.Client.Do(req)
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	return readJSON(hr, out)
}

// readJSON decodes a response body, surfacing the server's error shape
// on non-2xx statuses.
func readJSON(hr *http.Response, out any) error {
	raw, err := io.ReadAll(io.LimitReader(hr.Body, 1<<20))
	if err != nil {
		return err
	}
	if hr.StatusCode < 200 || hr.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", hr.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", hr.Status, strings.TrimSpace(string(raw)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// logf emits one progress line when a logger is configured.
func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}
