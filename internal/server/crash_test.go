package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/jobs"
	"repro/internal/report"
)

func TestHealthzAlwaysOK(t *testing.T) {
	srv := newTestServer(t, Options{})
	var h HealthResponse
	getJSON(t, srv, "/v1/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestReadyzHealthy(t *testing.T) {
	srv := newTestServer(t, Options{StoreDir: t.TempDir(), LedgerDir: t.TempDir(),
		Populations: experiments.NewPopulations(0)})
	var r ReadyResponse
	getJSON(t, srv, "/v1/readyz", http.StatusOK, &r)
	if !r.Ready {
		t.Fatalf("readyz = %+v", r)
	}
	for _, name := range []string{"store", "ledger", "queue"} {
		if _, ok := r.Checks[name]; !ok {
			t.Fatalf("readyz missing check %q: %+v", name, r)
		}
	}
}

// TestReadyzDegradesPerDependency: each failing dependency flips
// readiness to 503 and names itself in the checks, while liveness stays
// 200 — the degradation is visible, not fatal.
func TestReadyzDegradesPerDependency(t *testing.T) {
	defer faults.Reset()
	srv := newTestServer(t, Options{StoreDir: t.TempDir(), LedgerDir: t.TempDir(),
		Populations: experiments.NewPopulations(0)})

	for _, tc := range []struct{ point, check string }{
		{"store.probe", "store"},
		{"ledger.probe", "ledger"},
	} {
		faults.Arm(tc.point, faults.Injection{})
		var r ReadyResponse
		getJSON(t, srv, "/v1/readyz", http.StatusServiceUnavailable, &r)
		if r.Ready || r.Checks[tc.check] == "ok" {
			t.Fatalf("%s armed: readyz = %+v", tc.point, r)
		}
		var h HealthResponse
		getJSON(t, srv, "/v1/healthz", http.StatusOK, &h)
		faults.Reset()
	}
	var r ReadyResponse
	getJSON(t, srv, "/v1/readyz", http.StatusOK, &r)
	if !r.Ready {
		t.Fatalf("readyz after disarm = %+v", r)
	}
}

// TestReadyzDuringDrain: a draining server reports not-ready so load
// balancers stop routing new work to it.
func TestReadyzDuringDrain(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, err := New(Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		close(started)
		select {
		case <-release:
			return stubResult(id), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	postJSON(t, srv, "/v1/jobs", `{"experiment":"fig1","scale":"test"}`, http.StatusAccepted, nil)
	<-started
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := srv.Client().Get(srv.URL + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 during drain")
		}
		time.Sleep(time.Millisecond)
	}
	// New submissions are shed while draining: 503 with the
	// machine-readable reason, so clients fail over instead of retrying
	// a server on its way down.
	var e errorResponse
	postJSON(t, srv, "/v1/jobs", `{"experiment":"fig1","scale":"test","seed":99}`, http.StatusServiceUnavailable, &e)
	if e.Reason != ReasonDraining {
		t.Errorf("drain refusal reason = %q, want %q", e.Reason, ReasonDraining)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestJobListEndpoint: GET /v1/jobs returns every retained job in
// submission order with results stripped.
func TestJobListEndpoint(t *testing.T) {
	// The stub runs hold until both submissions have answered, so neither
	// can finish before its handler snapshots it and reply 200.
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free()
	srv := newTestServer(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubResult(id), nil
	}})
	var first, second jobs.Snapshot
	postJSON(t, srv, "/v1/jobs", `{"experiment":"fig1","scale":"test"}`, http.StatusAccepted, &first)
	postJSON(t, srv, "/v1/jobs", `{"experiment":"fig1","scale":"test","seed":99}`, http.StatusAccepted, &second)
	free()

	// Wait until both are done so Result-stripping is observable.
	for _, id := range []string{first.ID, second.ID} {
		deadline := time.Now().Add(10 * time.Second)
		for {
			var snap jobs.Snapshot
			getJSON(t, srv, "/v1/jobs/"+id, http.StatusOK, &snap)
			if snap.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never terminal", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	var list JobsResponse
	getJSON(t, srv, "/v1/jobs", http.StatusOK, &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("listed %d jobs, want 2: %+v", len(list.Jobs), list)
	}
	if list.Jobs[0].ID != first.ID || list.Jobs[1].ID != second.ID {
		t.Fatalf("listing order = %s, %s; want %s, %s", list.Jobs[0].ID, list.Jobs[1].ID, first.ID, second.ID)
	}
	for _, j := range list.Jobs {
		if j.Result != nil {
			t.Fatalf("job %s listing carries a result", j.ID)
		}
		if j.State != jobs.StateDone {
			t.Fatalf("job %s state = %s", j.ID, j.State)
		}
	}
}

// TestCrashRecoveryResumesGridJob is the PR's headline acceptance test:
// a server dies hard mid-grid (the job never reaches a terminal state —
// its goroutine is simply abandoned, as a SIGKILL would), a successor
// starts over the same store/ledger with Resume, and
//
//  1. the journaled grid job is resubmitted and runs to done,
//  2. replicas the ledger already held are NOT retrained (zero
//     duplicates), and
//  3. the recovered result is byte-identical to an uninterrupted run.
func TestCrashRecoveryResumesGridJob(t *testing.T) {
	if testing.Short() {
		t.Skip("training-backed experiment")
	}
	storeDir, ledgerDir := t.TempDir(), t.TempDir()
	gridBody := `{"grid":{"tasks":["smallcnn-cifar10"],"devices":["V100","TPUv2"],"variants":["IMPL"],"recipes":[{"epochs":2}]},"scale":"test","replicas":2,"seed":11}`
	const totalReplicas = 4 // 2 cells x 2 replicas

	// Process A: train until at least one replica is in the ledger, then
	// hang forever — the process-local equivalent of SIGKILL: no cleanup,
	// no terminal state, the journal entry left exactly as it was.
	pops1 := experiments.NewPopulations(0)
	s1, err := New(Options{StoreDir: storeDir, LedgerDir: ledgerDir, Populations: pops1,
		RunGrid: func(ctx context.Context, plan *experiments.Plan, cfg experiments.Config) (*report.Result, error) {
			ictx, icancel := context.WithCancel(ctx)
			go func() {
				for pops1.Ledger().Len() < 2 {
					time.Sleep(time.Millisecond)
				}
				icancel()
			}()
			_, _ = pops1.RunPlan(ictx, plan, cfg) // interrupted mid-grid
			select {}                             // the "crash": never return
		}})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(s1.Handler())
	// Deliberately NO s1.Close(): Close waits for workers, and a killed
	// process performs no shutdown. The hung worker goroutine leaks for
	// the remainder of the test binary, like the real process would until
	// the kernel reaps it.
	defer srv1.Close()

	var submitted GridResponse
	postJSON(t, srv1, "/v1/grid", gridBody, http.StatusAccepted, &submitted)
	// Wait until the ledger holds partial progress, then "kill" A.
	deadline := time.Now().Add(120 * time.Second)
	for pops1.Ledger().Len() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("ledger never accumulated partial progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	recordsAtKill := pops1.Ledger().Len()
	srv1.Close()
	if recordsAtKill >= totalReplicas {
		t.Fatalf("%d replicas already ledgered at kill; the grid finished before the crash", recordsAtKill)
	}

	// Process B: fresh caches, same directories, -resume.
	pops2 := experiments.NewPopulations(0)
	s2, err := New(Options{StoreDir: storeDir, LedgerDir: ledgerDir, Populations: pops2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		srv2.Close()
		s2.Close()
	})
	if s2.Recovered() != 1 {
		t.Fatalf("recovered %d jobs, want 1 (err = %v)", s2.Recovered(), s2.RecoveryError())
	}
	if err := s2.RecoveryError(); err != nil {
		t.Fatalf("recovery error: %v", err)
	}

	// The resubmitted job is discoverable through the listing and reaches
	// done.
	var list JobsResponse
	getJSON(t, srv2, "/v1/jobs", http.StatusOK, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].Experiment != submitted.GridID || list.Jobs[0].Key != submitted.Key {
		t.Fatalf("recovered listing = %+v, want the journaled grid job %s/%s", list.Jobs, submitted.GridID, submitted.Key)
	}
	recoveredID := list.Jobs[0].ID
	var snap jobs.Snapshot
	deadline = time.Now().Add(120 * time.Second)
	for {
		getJSON(t, srv2, "/v1/jobs/"+recoveredID, http.StatusOK, &snap)
		if snap.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job never terminal: %+v", snap)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if snap.State != jobs.StateDone {
		t.Fatalf("recovered job = %+v", snap)
	}

	// Zero duplicate training: the successor trained exactly the replicas
	// the ledger did not already hold.
	if got, want := int(pops2.Trains()), totalReplicas-recordsAtKill; got != want {
		t.Fatalf("successor trained %d replicas, want %d (%d were ledgered at kill)", got, want, recordsAtKill)
	}
	// The journal entry is settled.
	if n := s2.engine.Journal().Len(); n != 0 {
		t.Fatalf("%d journal entries left after recovery completed", n)
	}

	// Byte-identical to an uninterrupted run: a pristine server computes
	// the same grid from scratch; only wall time may differ.
	pops3 := experiments.NewPopulations(0)
	srv3 := newTestServer(t, Options{StoreDir: t.TempDir(), LedgerDir: t.TempDir(), Populations: pops3})
	var fresh GridResponse
	postJSON(t, srv3, "/v1/grid", gridBody, http.StatusAccepted, &fresh)
	var freshSnap jobs.Snapshot
	deadline = time.Now().Add(120 * time.Second)
	for {
		getJSON(t, srv3, "/v1/jobs/"+fresh.ID, http.StatusOK, &freshSnap)
		if freshSnap.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pristine job never terminal: %+v", freshSnap)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if freshSnap.State != jobs.StateDone {
		t.Fatalf("pristine job = %+v", freshSnap)
	}
	canon := func(r *report.Result) string {
		c := *r
		c.WallTimeSeconds = 0
		b, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := canon(snap.Result), canon(freshSnap.Result); got != want {
		t.Fatalf("recovered result differs from uninterrupted run:\nrecovered: %s\npristine:  %s", got, want)
	}

	// And the recovery journal directory lives where the docs say it does.
	if dir := s2.engine.Journal().Dir(); dir != filepath.Join(storeDir, "journal") {
		t.Fatalf("journal dir = %s", dir)
	}
}

// TestRecoverRefusesMismatchedGridKey: a journaled grid entry whose key
// is not the result key its own spec payload computes is refused by the
// resolver — it never runs, stays journaled and is reported by
// RecoveryError — so one grid's result is never stored under another
// grid's key.
func TestRecoverRefusesMismatchedGridKey(t *testing.T) {
	compile := func(body string) *experiments.Plan {
		spec, err := grid.Parse([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := experiments.CompileSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	own := compile(`{"tasks":["smallcnn-cifar10"],"devices":["V100"],"variants":["IMPL"]}`)
	other := compile(`{"tasks":["smallcnn-cifar10"],"devices":["TPUv2"],"variants":["IMPL"]}`)
	cfg := own.Config(experiments.Config{Scale: data.ScaleTest, Replicas: 1, Seed: 11})
	foreign := jobs.ResultKey(other.ID(), cfg)
	payload, err := json.Marshal(own.Spec)
	if err != nil {
		t.Fatal(err)
	}
	storeDir := t.TempDir()
	journal, err := jobs.OpenJournal(filepath.Join(storeDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Record(jobs.JournalEntry{Kind: jobs.KindTask, Experiment: own.ID(), Key: foreign,
		Scale: cfg.Scale.String(), Replicas: cfg.Replicas, Seed: cfg.Seed, Payload: payload}); err != nil {
		t.Fatal(err)
	}

	var ran atomic.Int64
	s, err := New(Options{StoreDir: storeDir, Populations: experiments.NewPopulations(0), Resume: true,
		RunGrid: func(ctx context.Context, plan *experiments.Plan, cfg experiments.Config) (*report.Result, error) {
			ran.Add(1)
			return stubResult(plan.ID()), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for _, j := range s.engine.Jobs() {
		<-j.Done()
	}
	if s.Recovered() != 0 || s.RecoveryError() == nil || !strings.Contains(s.RecoveryError().Error(), foreign) {
		t.Fatalf("recovered %d, error %v; want 0 and an error naming %s", s.Recovered(), s.RecoveryError(), foreign)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("mismatched grid entry ran %d times", n)
	}
	if _, ok := s.engine.Store().Get(foreign); ok {
		t.Fatalf("store serves a result under %s", foreign)
	}
	if n := journal.Len(); n != 1 {
		t.Fatalf("journaled entries = %d, want the refused entry kept", n)
	}
}
