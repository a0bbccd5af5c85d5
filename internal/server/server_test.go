package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/report"
)

func stubResult(id string) *report.Result {
	tb := report.New("stub", "k", "v")
	tb.AddCells(report.Str(id), report.Int(1))
	return &report.Result{Experiment: id, Title: "stub", Kind: report.KindTable, Tables: []*report.Table{tb}}
}

// newTestServer builds the service and its HTTP test harness, closing
// both at test end.
func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return srv
}

func getJSON(t *testing.T, srv *httptest.Server, path string, status int, into any) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != status {
		t.Fatalf("GET %s = %d, want %d: %s", path, resp.StatusCode, status, body)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v\n%s", path, err, body)
		}
	}
}

func postJSON(t *testing.T, srv *httptest.Server, path, body string, status int, into any) []byte {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != status {
		t.Fatalf("POST %s = %d, want %d: %s", path, resp.StatusCode, status, raw)
	}
	if into != nil {
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatalf("POST %s: invalid JSON: %v\n%s", path, err, raw)
		}
	}
	return raw
}

func deleteJSON(t *testing.T, srv *httptest.Server, path string, status int, into any) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+path, nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != status {
		t.Fatalf("DELETE %s = %d, want %d: %s", path, resp.StatusCode, status, raw)
	}
	if into != nil {
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatalf("DELETE %s: invalid JSON: %v\n%s", path, err, raw)
		}
	}
}

// TestListExperiments asserts the metadata endpoint surfaces the full
// registry with complete metadata.
func TestListExperiments(t *testing.T) {
	srv := newTestServer(t, Options{})
	var list ListResponse
	getJSON(t, srv, "/v1/experiments", http.StatusOK, &list)
	if len(list.Experiments) != len(experiments.IDs()) {
		t.Fatalf("listed %d experiments, registry has %d", len(list.Experiments), len(experiments.IDs()))
	}
	for _, m := range list.Experiments {
		if m.ID == "" || m.Title == "" || m.Artifact == "" || m.Cost == "" {
			t.Errorf("incomplete metadata over the wire: %+v", m)
		}
	}
}

// TestRunRoundTrip runs a cheap (no-training) experiment through the full
// HTTP path and re-fetches it by key.
func TestRunRoundTrip(t *testing.T) {
	srv := newTestServer(t, Options{})

	var run RunResponse
	postJSON(t, srv, "/v1/experiments/table4/run", `{"scale":"test"}`, http.StatusOK, &run)
	if run.Cached {
		t.Error("first run reported cached")
	}
	if run.Key != "table4-test-r3-s20220622" {
		t.Errorf("key = %q", run.Key)
	}
	if run.Result == nil || run.Result.Experiment != "table4" || len(run.Result.Tables) == 0 {
		t.Fatalf("result = %+v", run.Result)
	}
	if run.Result.Config.Scale != "test" || run.Result.Config.Replicas != 3 {
		t.Errorf("config echo = %+v", run.Result.Config)
	}

	// Identical run again: served from the completed-result store.
	var again RunResponse
	postJSON(t, srv, "/v1/experiments/table4/run", `{"scale":"test"}`, http.StatusOK, &again)
	if !again.Cached {
		t.Error("second identical run was not served from cache")
	}

	// And the result endpoint addresses it by key.
	var fetched RunResponse
	getJSON(t, srv, "/v1/results/"+run.Key, http.StatusOK, &fetched)
	if fetched.Result == nil || fetched.Result.Experiment != "table4" {
		t.Fatalf("fetched result = %+v", fetched.Result)
	}
}

func TestRunValidation(t *testing.T) {
	srv := newTestServer(t, Options{})
	postJSON(t, srv, "/v1/experiments/nope/run", `{}`, http.StatusNotFound, nil)
	postJSON(t, srv, "/v1/experiments/table4/run", `{"scale":"gigantic"}`, http.StatusBadRequest, nil)
	postJSON(t, srv, "/v1/experiments/table4/run", `{"replicas":-1}`, http.StatusBadRequest, nil)
	postJSON(t, srv, "/v1/experiments/table4/run", `{"bogus":1}`, http.StatusBadRequest, nil)
	getJSON(t, srv, "/v1/results/no-such-key", http.StatusNotFound, nil)
}

func TestSubmitValidation(t *testing.T) {
	srv := newTestServer(t, Options{})
	postJSON(t, srv, "/v1/jobs", `{}`, http.StatusBadRequest, nil)
	postJSON(t, srv, "/v1/jobs", `{"experiment":"nope"}`, http.StatusNotFound, nil)
	postJSON(t, srv, "/v1/jobs", `{"experiment":"table4","scale":"gigantic"}`, http.StatusBadRequest, nil)
	postJSON(t, srv, "/v1/jobs", `{"experiment":"table4","bogus":1}`, http.StatusBadRequest, nil)
	getJSON(t, srv, "/v1/jobs/no-such-job", http.StatusNotFound, nil)
	deleteJSON(t, srv, "/v1/jobs/no-such-job", http.StatusNotFound, nil)
}

// TestJobSubmitPollFetch drives the asynchronous workflow end to end:
// submit returns immediately with a queued/running job, polling exposes
// live progress, and the completed job carries the result that the
// results endpoint then serves by key.
func TestJobSubmitPollFetch(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv := newTestServer(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		progress := experiments.ProgressFrom(ctx)
		progress(0, 5)
		progress(2, 5)
		close(started)
		<-release
		progress(5, 5)
		return stubResult(id), nil
	}})

	var snap jobs.Snapshot
	postJSON(t, srv, "/v1/jobs", `{"experiment":"fig1","scale":"test","replicas":1}`, http.StatusAccepted, &snap)
	if snap.ID == "" || snap.State.Terminal() {
		t.Fatalf("submit snapshot = %+v", snap)
	}
	if snap.Key != "fig1-test-r1-s20220622" {
		t.Fatalf("key = %q", snap.Key)
	}
	<-started

	var mid jobs.Snapshot
	getJSON(t, srv, "/v1/jobs/"+snap.ID, http.StatusOK, &mid)
	if mid.State != jobs.StateRunning {
		t.Fatalf("mid-run state = %s", mid.State)
	}
	if mid.Progress.Done != 2 || mid.Progress.Total != 5 {
		t.Fatalf("mid-run progress = %+v, want 2/5", mid.Progress)
	}
	if mid.Result != nil {
		t.Fatal("running job exposed a result")
	}

	close(release)
	deadline := time.Now().Add(10 * time.Second)
	var done jobs.Snapshot
	for {
		getJSON(t, srv, "/v1/jobs/"+snap.ID, http.StatusOK, &done)
		if done.State.Terminal() || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if done.State != jobs.StateDone || done.Result == nil || done.Result.Experiment != "fig1" {
		t.Fatalf("final snapshot = %+v", done)
	}
	if done.Progress.Done != 5 || done.Progress.Total != 5 {
		t.Fatalf("final progress = %+v, want 5/5", done.Progress)
	}

	var fetched RunResponse
	getJSON(t, srv, "/v1/results/"+snap.Key, http.StatusOK, &fetched)
	if fetched.Result == nil || fetched.Result.Experiment != "fig1" {
		t.Fatalf("fetched result = %+v", fetched.Result)
	}

	// Submitting the identical config again is served instantly: 200 (not
	// 202), born done, cached.
	var cached jobs.Snapshot
	postJSON(t, srv, "/v1/jobs", `{"experiment":"fig1","scale":"test","replicas":1}`, http.StatusOK, &cached)
	if cached.State != jobs.StateDone || !cached.Cached || cached.Result == nil {
		t.Fatalf("resubmission snapshot = %+v", cached)
	}
}

// TestJobCancellation is the satellite acceptance test: DELETE on a
// running job reaches the training loop's context promptly, and the job
// reports cancelled with a typed error.
func TestJobCancellation(t *testing.T) {
	started := make(chan struct{})
	observed := make(chan struct{})
	srv := newTestServer(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		close(started)
		<-ctx.Done() // training checks ctx at every batch boundary
		close(observed)
		return nil, ctx.Err()
	}})

	var snap jobs.Snapshot
	postJSON(t, srv, "/v1/jobs", `{"experiment":"table2"}`, http.StatusAccepted, &snap)
	<-started

	var cancelled jobs.Snapshot
	deleteJSON(t, srv, "/v1/jobs/"+snap.ID, http.StatusOK, &cancelled)
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("DELETE did not cancel the training context promptly")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, srv, "/v1/jobs/"+snap.ID, http.StatusOK, &cancelled)
		if cancelled.State.Terminal() || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cancelled.State != jobs.StateCancelled {
		t.Fatalf("state = %s, want cancelled", cancelled.State)
	}
	if cancelled.Error == nil || cancelled.Error.Kind != jobs.ErrKindCancelled {
		t.Fatalf("error = %+v", cancelled.Error)
	}
	// Cancelling a terminal job is an idempotent no-op.
	deleteJSON(t, srv, "/v1/jobs/"+snap.ID, http.StatusOK, &cancelled)
	if cancelled.State != jobs.StateCancelled {
		t.Fatalf("second DELETE changed state to %s", cancelled.State)
	}
}

// TestQueueFullReturns503: when the bounded job queue is at capacity,
// further submissions get backpressure, not unbounded queueing.
func TestQueueFullReturns503(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv := newTestServer(t, Options{Workers: 1, QueueDepth: 1, Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return stubResult(id), nil
	}})
	saw503 := false
	for i := 0; i < 8 && !saw503; i++ {
		body := fmt.Sprintf(`{"experiment":"fig1","seed":%d}`, 100+i)
		resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			saw503 = true
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !saw503 {
		t.Fatal("bounded queue never pushed back with 503")
	}
}

// TestConcurrentIdenticalRequestsSingleflight proves the engine-level
// dedup: N concurrent identical POSTs execute the runner once and every
// client receives the same completed result.
func TestConcurrentIdenticalRequestsSingleflight(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	srv := newTestServer(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		calls.Add(1)
		<-release // hold every request in the same job window
		return stubResult(id), nil
	}})

	const clients = 8
	responses := make([]RunResponse, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := srv.Client().Post(srv.URL+"/v1/experiments/fig1/run", "application/json", strings.NewReader(`{"scale":"test"}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, raw)
				return
			}
			if err := json.Unmarshal(raw, &responses[i]); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	// Wait until the job owner is inside the runner, then release it.
	deadline := time.Now().Add(10 * time.Second)
	for calls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests executed the runner %d times, want exactly 1", clients, got)
	}
	// Every client sees the same key and result, whether it joined the
	// live job or arrived just after completion and hit the store.
	want, _ := json.Marshal(responses[0].Result)
	for i := 1; i < clients; i++ {
		got, _ := json.Marshal(responses[i].Result)
		if responses[i].Key != responses[0].Key || string(got) != string(want) {
			t.Fatalf("client %d saw a different result:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestConcurrentTable2RunsTrainOnce is an acceptance-criteria test: two
// concurrent identical POST /v1/experiments/table2/run requests must train
// each replica exactly once. The experiments package counts actual replica
// trainings (ledger hits excluded); table2's grid is 10 task/device pairs
// x 3 variants = 30 cells at one replica each, so the delta across both
// requests together must be exactly 30. One replica per population keeps
// the test well inside the go test per-package timeout on a 1-core machine
// while still training the full table2 grid.
func TestConcurrentTable2RunsTrainOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("training-backed experiment")
	}
	experiments.ResetCache()
	srv := newTestServer(t, Options{})

	before := experiments.ReplicaTrains()
	const clients = 2
	var wg sync.WaitGroup
	wg.Add(clients)
	responses := make([]RunResponse, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := srv.Client().Post(srv.URL+"/v1/experiments/table2/run", "application/json",
				strings.NewReader(`{"scale":"test","replicas":1}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, raw)
				return
			}
			if err := json.Unmarshal(raw, &responses[i]); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	trained := experiments.ReplicaTrains() - before
	if trained != 30 {
		t.Fatalf("two concurrent table2 requests trained %d replicas, want exactly 30 (each replica once)", trained)
	}
	a, _ := json.Marshal(responses[0].Result.Tables)
	b, _ := json.Marshal(responses[1].Result.Tables)
	if string(a) != string(b) {
		t.Fatal("concurrent identical requests returned different tables")
	}
	if responses[0].Key != responses[1].Key {
		t.Fatalf("keys differ: %q vs %q", responses[0].Key, responses[1].Key)
	}
}

// TestRestartServesFromDisk is the PR's acceptance-criteria test: a
// result computed before a server restart is served from the on-disk
// store by the restarted server with zero additional populations
// trained.
func TestRestartServesFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("training-backed experiment")
	}
	dir := t.TempDir()
	experiments.ResetCache()

	s1, err := New(Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(s1.Handler())
	var first RunResponse
	{
		resp, err := srv1.Client().Post(srv1.URL+"/v1/experiments/fig2/run", "application/json",
			strings.NewReader(`{"scale":"test","replicas":1}`))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("first run: status %d: %s", resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &first); err != nil {
			t.Fatal(err)
		}
	}
	if first.Cached || first.Result == nil {
		t.Fatalf("first run = %+v", first)
	}
	srv1.Close()
	s1.Close()

	// "Restart": a fresh server process knows nothing in memory — wipe the
	// process-global population cache so only the on-disk store can dedup.
	experiments.ResetCache()
	before := experiments.ReplicaTrains()

	s2, err := New(Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(s2.Handler())
	defer func() {
		srv2.Close()
		s2.Close()
	}()

	var snap jobs.Snapshot
	postJSON2 := func(path, body string, status int, into any) {
		t.Helper()
		resp, err := srv2.Client().Post(srv2.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("POST %s = %d, want %d: %s", path, resp.StatusCode, status, raw)
		}
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatal(err)
		}
	}
	// 200 (not 202): the job is born done from the persisted result.
	postJSON2("/v1/jobs", `{"experiment":"fig2","scale":"test","replicas":1}`, http.StatusOK, &snap)
	if snap.State != jobs.StateDone || !snap.Cached || snap.Result == nil {
		t.Fatalf("post-restart snapshot = %+v", snap)
	}
	if trained := experiments.ReplicaTrains() - before; trained != 0 {
		t.Fatalf("post-restart submission trained %d populations, want 0 (served from disk)", trained)
	}
	// The served result is the stored one, bit-for-bit at the JSON layer.
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(snap.Result)
	if string(a) != string(b) {
		t.Fatalf("restarted server served a different result:\n%s\nvs\n%s", b, a)
	}
}

// TestLedgerRestartTrainsOnlyDelta is the PR's acceptance-criteria test:
// a server restarted with the same -ledger directory, given a previously
// UNSEEN grid (larger replica count, so a different result key — the
// result store cannot help) that overlaps prior cells, trains only the
// missing replicas. Isolated Populations caches simulate the two cold
// processes; the replica-train counter on each pins the delta exactly.
func TestLedgerRestartTrainsOnlyDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("training-backed experiment")
	}
	ledgerDir := t.TempDir()
	// Two cells, two epochs: real training kept tiny.
	grid := `"grid":{"tasks":["smallcnn-cifar10"],"devices":["V100","TPUv2"],"variants":["IMPL"],"recipes":[{"epochs":2}]}`
	runGrid := func(srv *httptest.Server, replicas int, wantCached int) jobs.Snapshot {
		t.Helper()
		body := fmt.Sprintf(`{%s,"scale":"test","replicas":%d,"seed":11}`, grid, replicas)
		var resp GridResponse
		postJSON(t, srv, "/v1/grid", body, http.StatusAccepted, &resp)
		if resp.Estimate.CachedReplicas != wantCached {
			t.Fatalf("estimate credits %d cached replicas, want %d (estimate = %+v)",
				resp.Estimate.CachedReplicas, wantCached, resp.Estimate)
		}
		var snap jobs.Snapshot
		deadline := time.Now().Add(120 * time.Second)
		for {
			getJSON(t, srv, "/v1/jobs/"+resp.ID, http.StatusOK, &snap)
			if snap.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("grid job never terminal: %+v", snap)
			}
			time.Sleep(50 * time.Millisecond)
		}
		if snap.State != jobs.StateDone {
			t.Fatalf("grid job = %+v", snap)
		}
		return snap
	}

	// Process 1: a 1-replica run over a cold ledger trains 2 replicas
	// (one per cell).
	pops1 := experiments.NewPopulations(0)
	srv1 := newTestServer(t, Options{LedgerDir: ledgerDir, Populations: pops1})
	first := runGrid(srv1, 1, 0)
	if pops1.Trains() != 2 {
		t.Fatalf("cold run trained %d replicas, want 2", pops1.Trains())
	}
	if first.Progress.Total != 2 || first.Progress.Done != 2 {
		t.Fatalf("cold run progress = %+v, want 2/2 replicas", first.Progress)
	}

	// Process 2 ("restart"): a fresh cache over the same ledger directory,
	// asked for 3 replicas per cell. The result key is new (r3, never
	// stored), but the estimate credits the 2 replicas on disk and the run
	// trains only the 4 missing ones.
	pops2 := experiments.NewPopulations(0)
	srv2 := newTestServer(t, Options{LedgerDir: ledgerDir, Populations: pops2})
	grown := runGrid(srv2, 3, 2)
	if pops2.Trains() != 4 {
		t.Fatalf("restarted server trained %d replicas, want 4 (only the delta)", pops2.Trains())
	}
	if grown.Progress.Total != 6 || grown.Progress.Done != 6 {
		t.Fatalf("grown run progress = %+v, want 6/6 replicas", grown.Progress)
	}
}

// TestAbandonedFlightCancelled proves the attached-job contract on the
// synchronous endpoint: when every subscribed client disconnects, the
// job's context is cancelled so training stops burning the pool.
func TestAbandonedFlightCancelled(t *testing.T) {
	started := make(chan struct{})
	cancelled := make(chan error, 1)
	srv := newTestServer(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		close(started)
		<-ctx.Done() // simulate training that aborts at the next batch
		cancelled <- ctx.Err()
		return nil, ctx.Err()
	}})

	reqCtx, cancelReq := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(reqCtx, http.MethodPost,
		srv.URL+"/v1/experiments/fig1/run", strings.NewReader(`{}`))
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		_, err := srv.Client().Do(req)
		errCh <- err
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	cancelReq() // the only client walks away

	select {
	case err := <-cancelled:
		if err != context.Canceled {
			t.Fatalf("job ctx err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("abandoned job was never cancelled")
	}
	if err := <-errCh; err == nil {
		t.Fatal("client request unexpectedly succeeded")
	}
}

// TestLateClientAfterAbandonedFlightGetsFreshRun pins the doomed-job
// window: once the last waiter cancels a job, a new identical request
// must start a fresh run — even while the cancelled job is still winding
// down — rather than inherit its cancellation error.
func TestLateClientAfterAbandonedFlightGetsFreshRun(t *testing.T) {
	var calls atomic.Int64
	firstStarted := make(chan struct{})
	firstCancelled := make(chan struct{})
	srv := newTestServer(t, Options{Workers: 2, Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		if calls.Add(1) == 1 {
			close(firstStarted)
			<-ctx.Done()
			close(firstCancelled)
			time.Sleep(300 * time.Millisecond) // slow wind-down window
			return nil, ctx.Err()
		}
		return stubResult(id), nil
	}})

	reqCtx, cancelReq := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(reqCtx, http.MethodPost,
		srv.URL+"/v1/experiments/fig1/run", strings.NewReader(`{}`))
	go func() { _, _ = srv.Client().Do(req) }()

	<-firstStarted
	cancelReq() // the only subscriber walks away
	select {
	case <-firstCancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("abandoned job was never cancelled")
	}

	// The doomed job is still inside its wind-down sleep; an identical
	// request now must run fresh and succeed.
	var fresh RunResponse
	postJSON(t, srv, "/v1/experiments/fig1/run", `{}`, http.StatusOK, &fresh)
	if fresh.Result == nil || fresh.Result.Experiment != "fig1" {
		t.Fatalf("fresh run result = %+v", fresh.Result)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("runner called %d times, want 2 (doomed job + fresh run)", got)
	}
}

// TestResultKeyResolvesDefaults pins the canonical key format, including
// scale-default replica resolution.
func TestResultKeyResolvesDefaults(t *testing.T) {
	cfg := experiments.Config{Scale: data.ScaleTest, Seed: 7}
	if key := ResultKey("fig5", cfg); key != "fig5-test-r3-s7" {
		t.Fatalf("key = %q", key)
	}
	cfg.Replicas = 9
	if key := ResultKey("fig5", cfg); key != "fig5-test-r9-s7" {
		t.Fatalf("key = %q", key)
	}
}

// TestServerRunErrorSurfaced maps runner failures onto HTTP 500 with a
// JSON error body.
func TestServerRunErrorSurfaced(t *testing.T) {
	srv := newTestServer(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		return nil, fmt.Errorf("boom")
	}})
	var e errorResponse
	postJSON(t, srv, "/v1/experiments/fig1/run", `{}`, http.StatusInternalServerError, &e)
	if !strings.Contains(e.Error, "boom") {
		t.Fatalf("error body = %+v", e)
	}
	// A failed job must not be cached: the next request re-executes.
	postJSON(t, srv, "/v1/experiments/fig1/run", `{}`, http.StatusInternalServerError, &e)
}

// TestCatalogEndpoints: the device and workload catalogs grid specs
// compose against.
func TestCatalogEndpoints(t *testing.T) {
	srv := newTestServer(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		return stubResult(id), nil
	}})
	var dev DevicesResponse
	getJSON(t, srv, "/v1/devices", http.StatusOK, &dev)
	if len(dev.Devices) != 7 {
		t.Fatalf("devices = %d, want 7 catalog entries", len(dev.Devices))
	}
	byAlias := map[string]bool{}
	for _, d := range dev.Devices {
		byAlias[d.Alias] = true
	}
	if !byAlias["v100"] || !byAlias["rtx5000tc"] {
		t.Fatalf("aliases missing: %v", byAlias)
	}
	var wl WorkloadsResponse
	getJSON(t, srv, "/v1/workloads", http.StatusOK, &wl)
	if len(wl.Workloads) != 6 {
		t.Fatalf("workloads = %d, want 6 recipes", len(wl.Workloads))
	}
	for _, w := range wl.Workloads {
		if w.Name == "" || w.Alias == "" || w.Batch == 0 || w.LR == 0 {
			t.Errorf("incomplete workload %+v", w)
		}
	}
}

// TestGridSubmit drives POST /v1/grid against a stub executor: 202 with
// estimate on first submission, job pollable to done, 200 cached on
// resubmission, 400 on specs that do not compile. The stub grid blocks
// until the first POST has answered, so the job cannot finish before the
// handler snapshots it (which would turn the 202 into a 200).
func TestGridSubmit(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseGrid := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseGrid()
	srv := newTestServer(t, Options{
		RunGrid: func(ctx context.Context, plan *experiments.Plan, cfg experiments.Config) (*report.Result, error) {
			calls.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubResult(plan.ID()), nil
		},
	})
	body := `{"grid":{"tasks":["smallcnn-cifar10"],"devices":["v100","tpuv2"],"variants":["IMPL"]},"scale":"test","replicas":1,"seed":7}`
	var resp GridResponse
	raw := postJSON(t, srv, "/v1/grid", body, http.StatusAccepted, &resp)
	releaseGrid()
	if resp.GridID == "" || !strings.HasPrefix(resp.GridID, "grid-") {
		t.Fatalf("grid id = %q: %s", resp.GridID, raw)
	}
	if resp.Estimate.Cells != 2 || resp.Estimate.ReplicasPerCell != 1 {
		t.Fatalf("estimate = %+v, want 2 cells x 1 replica", resp.Estimate)
	}
	if resp.Experiment != resp.GridID {
		t.Fatalf("job labeled %q, want %q", resp.Experiment, resp.GridID)
	}
	if resp.Key != resp.GridID+"-test-r1-s7" {
		t.Fatalf("key = %q", resp.Key)
	}

	var snap jobs.Snapshot
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, srv, "/v1/jobs/"+resp.ID, http.StatusOK, &snap)
		if snap.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("grid job never terminal: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.State != jobs.StateDone || snap.Result == nil {
		t.Fatalf("final snapshot = %+v", snap)
	}

	// Resubmitting the identical grid (even spelled differently) is served
	// from the store: 200, cached, no new execution.
	body2 := `{"grid":{"tasks":["SmallCNN CIFAR-10"],"devices":["V100","TPUv2"],"variants":["impl"]},"scale":"test","replicas":1,"seed":7}`
	var resp2 GridResponse
	postJSON(t, srv, "/v1/grid", body2, http.StatusOK, &resp2)
	if !resp2.Cached || resp2.State != jobs.StateDone || resp2.Result == nil {
		t.Fatalf("resubmission = %+v", resp2.Snapshot)
	}
	if calls.Load() != 1 {
		t.Fatalf("grid executed %d times, want 1", calls.Load())
	}

	// The result is also addressable via GET /v1/results/{key}.
	var fetched RunResponse
	getJSON(t, srv, "/v1/results/"+resp.Key, http.StatusOK, &fetched)
	if fetched.Result == nil {
		t.Fatal("stored grid result not served by key")
	}

	for _, bad := range []string{
		`{"grid":{"tasks":["nope"],"devices":["V100"]}}`,
		`{"grid":{"tasks":["SmallCNN CIFAR-10"],"devices":["H100"]}}`,
		`{"grid":{"tasks":["SmallCNN CIFAR-10"]}}`,
		`{"grid":{"tasks":["SmallCNN CIFAR-10"],"devices":["V100"]},"scale":"galactic"}`,
		`{"grid":{"tasks":["SmallCNN CIFAR-10"],"devices":["V100"],"recipies":[{}]}}`,
	} {
		postJSON(t, srv, "/v1/grid", bad, http.StatusBadRequest, nil)
	}
}

// TestGridEndToEndRestart is the acceptance path with real training: a
// tiny custom grid runs through the engine, persists, and after a server
// restart the identical submission is served from disk with zero
// retrains.
func TestGridEndToEndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("training-backed experiment")
	}
	experiments.ResetCache()
	dir := t.TempDir()
	// Two cells, one replica, two epochs: real training kept tiny.
	body := `{"grid":{"tasks":["smallcnn-cifar10"],"devices":["V100","TPUv2"],"variants":["IMPL"],"recipes":[{"epochs":2}]},"scale":"test","replicas":1,"seed":11}`

	srv := newTestServer(t, Options{StoreDir: dir})
	var resp GridResponse
	postJSON(t, srv, "/v1/grid", body, http.StatusAccepted, &resp)
	var snap jobs.Snapshot
	deadline := time.Now().Add(120 * time.Second)
	for {
		getJSON(t, srv, "/v1/jobs/"+resp.ID, http.StatusOK, &snap)
		if snap.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("grid job never terminal: %+v", snap)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if snap.State != jobs.StateDone {
		t.Fatalf("grid job = %+v", snap)
	}
	if snap.Progress.Total != 2 || snap.Progress.Done != 2 {
		t.Fatalf("grid progress = %+v, want 2/2 cells", snap.Progress)
	}
	rows := snap.Result.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("grid result rows = %d, want 2", len(rows))
	}

	// Restart: fresh server over the same store directory.
	srv2 := newTestServer(t, Options{StoreDir: dir})
	before := experiments.ReplicaTrains()
	var resp2 GridResponse
	postJSON(t, srv2, "/v1/grid", body, http.StatusOK, &resp2)
	if !resp2.Cached || resp2.State != jobs.StateDone || resp2.Result == nil {
		t.Fatalf("post-restart submission = %+v", resp2.Snapshot)
	}
	if trained := experiments.ReplicaTrains() - before; trained != 0 {
		t.Fatalf("post-restart submission trained %d populations, want 0", trained)
	}
}
