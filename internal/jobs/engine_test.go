package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/report"
)

func testConfig() experiments.Config {
	return experiments.Config{Scale: data.ScaleTest, Replicas: 1, Seed: 7}
}

// newTestEngine builds an engine around a stub runner; the cleanup
// closes it so blocked stubs get cancelled at test end.
func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := NewEngine(opts)
	t.Cleanup(e.Close)
	return e
}

func waitTerminal(t *testing.T, j *Job) Snapshot {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never terminal: %+v", j.ID(), j.Snapshot())
	}
	return j.Snapshot()
}

// TestJobLifecycle drives one job queued -> running -> done and checks
// every observable along the way, including the progress fed through the
// experiments observer.
func TestJobLifecycle(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	e := newTestEngine(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		progress := experiments.ProgressFrom(ctx)
		progress(0, 4)
		close(started)
		<-release
		progress(3, 4)
		return stubResult(id), nil
	}})

	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if j.Key() != "fig1-test-r1-s7" {
		t.Fatalf("key = %q", j.Key())
	}
	<-started
	snap := j.Snapshot()
	if snap.State != StateRunning {
		t.Fatalf("state = %s, want running", snap.State)
	}
	if snap.Progress.Total != 4 || snap.Progress.Done != 0 {
		t.Fatalf("progress = %+v, want 0/4", snap.Progress)
	}
	if snap.Result != nil {
		t.Fatal("non-terminal snapshot carries a result")
	}
	close(release)
	snap = waitTerminal(t, j)
	if snap.State != StateDone || snap.Cached || snap.Error != nil {
		t.Fatalf("final snapshot = %+v", snap)
	}
	if snap.Progress.Done != 3 || snap.Progress.Total != 4 {
		t.Fatalf("final progress = %+v, want 3/4", snap.Progress)
	}
	if snap.Result == nil || snap.Result.Experiment != "fig1" {
		t.Fatalf("result = %+v", snap.Result)
	}
	// The result is now stored: a fresh submission is born done+cached.
	j2, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s2 := j2.Snapshot(); s2.State != StateDone || !s2.Cached || s2.Result == nil {
		t.Fatalf("cached submission snapshot = %+v", s2)
	}
	if j2.ID() == j.ID() {
		t.Fatal("cached submission reused the finished job's ID")
	}
}

// TestLiveJobDedup: identical submissions while a job is live join it
// instead of queueing duplicate work.
func TestLiveJobDedup(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	e := newTestEngine(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		calls.Add(1)
		<-release
		return stubResult(id), nil
	}})
	a, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical live submissions produced distinct jobs %s and %s", a.ID(), b.ID())
	}
	// A different config is a different job.
	other := testConfig()
	other.Seed = 8
	c, err := e.Submit("fig1", other)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seed joined the same job")
	}
	close(release)
	waitTerminal(t, a)
	waitTerminal(t, c)
	if got := calls.Load(); got != 2 {
		t.Fatalf("runner ran %d times, want 2", got)
	}
}

// TestCancelRunningJob proves Cancel reaches a running job's context
// promptly and the job lands in StateCancelled with a typed error.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	observed := make(chan struct{})
	e := newTestEngine(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		close(started)
		<-ctx.Done() // a training loop checks ctx at every batch boundary
		close(observed)
		return nil, ctx.Err()
	}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := e.Cancel(j.ID()); !ok {
		t.Fatal("Cancel did not find the job")
	}
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("running job's context was not cancelled promptly")
	}
	snap := waitTerminal(t, j)
	if snap.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", snap.State)
	}
	if snap.Error == nil || snap.Error.Kind != ErrKindCancelled {
		t.Fatalf("error = %+v, want kind %q", snap.Error, ErrKindCancelled)
	}
	<-j.Done()
	if s := j.Snapshot(); s.Error == nil || s.Result != nil {
		t.Fatalf("cancelled job snapshot = %+v, want an error and no result", s)
	}
	// The key is free again: a new submission starts a fresh job.
	j2, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if j2 == j {
		t.Fatal("submission after cancel joined the cancelled job")
	}
}

// TestCancelQueuedJob: a job cancelled before any worker picks it up
// terminates immediately and its queue slot becomes a no-op.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	e := newTestEngine(t, Options{Workers: 1, Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		calls.Add(1)
		<-release
		return stubResult(id), nil
	}})
	blocker, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	queuedCfg := testConfig()
	queuedCfg.Seed = 99
	queued, err := e.Submit("fig2", queuedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := queued.Snapshot(); s.State != StateQueued {
		t.Fatalf("second job state = %s, want queued (1 worker)", s.State)
	}
	if _, ok := e.Cancel(queued.ID()); !ok {
		t.Fatal("Cancel did not find the queued job")
	}
	snap := waitTerminal(t, queued) // must not require a worker
	if snap.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", snap.State)
	}
	close(release)
	waitTerminal(t, blocker)
	if got := calls.Load(); got != 1 {
		t.Fatalf("runner ran %d times; the cancelled queued job must never run", got)
	}
}

// TestQueueFullBackpressure: a bounded backlog rejects the overflow
// submission with ErrQueueFull instead of queueing unboundedly.
func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	e := newTestEngine(t, Options{Workers: 1, QueueDepth: 1, Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		<-release
		return stubResult(id), nil
	}})
	cfg := testConfig()
	var jobs []*Job
	var errFull error
	for i := 0; i < 8; i++ {
		cfg.Seed = uint64(100 + i) // distinct keys, no dedup
		j, err := e.Submit("fig1", cfg)
		if err != nil {
			errFull = err
			break
		}
		jobs = append(jobs, j)
	}
	if !errors.Is(errFull, ErrQueueFull) {
		t.Fatalf("overflow submission error = %v, want ErrQueueFull", errFull)
	}
	if len(jobs) < 1 {
		t.Fatal("no submission accepted")
	}
	close(release)
	for _, j := range jobs {
		if s := waitTerminal(t, j); s.State != StateDone {
			t.Fatalf("accepted job %s finished %s", s.ID, s.State)
		}
	}
}

// TestAttachedJobCancelledWhenAbandoned: SubmitAttached jobs die with
// their last waiter; a detached join keeps them alive instead.
func TestAttachedJobCancelledWhenAbandoned(t *testing.T) {
	t.Run("abandoned", func(t *testing.T) {
		started := make(chan struct{})
		e := newTestEngine(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}})
		j, err := e.SubmitAttached("fig1", testConfig())
		if err != nil {
			t.Fatal(err)
		}
		<-started
		j.Release()
		if snap := waitTerminal(t, j); snap.State != StateCancelled {
			t.Fatalf("abandoned attached job finished %s, want cancelled", snap.State)
		}
	})
	t.Run("upgraded to detached", func(t *testing.T) {
		started := make(chan struct{})
		release := make(chan struct{})
		e := newTestEngine(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			close(started)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
				return stubResult(id), nil
			}
		}})
		j, err := e.SubmitAttached("fig1", testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit("fig1", testConfig()); err != nil { // async claim
			t.Fatal(err)
		}
		<-started
		j.Release() // last waiter leaves, but the job is detached now
		select {
		case <-j.Done():
			t.Fatalf("detached job was cancelled by waiter release: %+v", j.Snapshot())
		case <-time.After(100 * time.Millisecond):
		}
		close(release)
		if snap := waitTerminal(t, j); snap.State != StateDone {
			t.Fatalf("detached job finished %s, want done", snap.State)
		}
	})
}

// TestFailedJobTypedError: runner errors and panics land in StateFailed
// with ErrKindFailed, and the key is immediately reusable.
func TestFailedJobTypedError(t *testing.T) {
	var calls atomic.Int64
	e := newTestEngine(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("boom")
		}
		panic("kaboom")
	}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateFailed || snap.Error == nil || snap.Error.Kind != ErrKindFailed {
		t.Fatalf("snapshot = %+v", snap)
	}
	if !strings.Contains(snap.Error.Message, "boom") {
		t.Fatalf("error message = %q", snap.Error.Message)
	}
	// Failures are not stored; the retry runs (and this one panics, which
	// must mark the job failed rather than kill the worker).
	j2, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap2 := waitTerminal(t, j2)
	if snap2.State != StateFailed || !strings.Contains(snap2.Error.Message, "kaboom") {
		t.Fatalf("panicking job snapshot = %+v", snap2)
	}
}

// TestQueuedDuplicateServedFromStore: a duplicate that slipped past the
// live-dedup window (its twin finished first) is served from the store
// at execution time instead of retraining.
func TestQueuedDuplicateServedFromStore(t *testing.T) {
	var calls atomic.Int64
	store, _ := Open("", 8)
	e := newTestEngine(t, Options{Workers: 1, Store: store, Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		calls.Add(1)
		return stubResult(id), nil
	}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	// Simulate the race: wipe only the live-dedup effect by submitting
	// after completion but with the store entry removed from... the store
	// is the dedup here; a fresh submit is born done. So instead prove the
	// worker-side re-check: seed the store under a key a queued job will
	// compute.
	cfg := testConfig()
	cfg.Seed = 42
	key := ResultKey("fig9", cfg)
	if err := store.Put(key, stubResult("fig9")); err != nil {
		t.Fatal(err)
	}
	before := calls.Load()
	j2, err := e.Submit("fig9", cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j2)
	if snap.State != StateDone || !snap.Cached {
		t.Fatalf("snapshot = %+v, want done+cached", snap)
	}
	if got := calls.Load() - before; got != 0 {
		t.Fatalf("stored key still ran the runner %d times", got)
	}
}

// TestEngineCloseCancelsLiveJobs: Close is a clean shutdown — live jobs
// are cancelled, workers drain, and later submissions are refused.
func TestEngineCloseCancelsLiveJobs(t *testing.T) {
	started := make(chan struct{})
	e := NewEngine(Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	done := make(chan struct{})
	go func() { e.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	if snap := j.Snapshot(); snap.State != StateCancelled {
		t.Fatalf("job survived Close in state %s", snap.State)
	}
	if _, err := e.Submit("fig1", testConfig()); err == nil {
		t.Fatal("Submit accepted after Close")
	}
}

// TestJobRetention: terminal jobs beyond the retention bound are
// forgotten oldest-first, while the newest stay addressable.
func TestJobRetention(t *testing.T) {
	e := newTestEngine(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		return stubResult(id), nil
	}})
	e.retain = 2 // production retains retainJobs; shrink it before any submit
	cfg := testConfig()
	var ids []string
	for i := 0; i < 4; i++ {
		cfg.Seed = uint64(200 + i)
		j, err := e.Submit("fig1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		ids = append(ids, j.ID())
	}
	if _, ok := e.Get(ids[0]); ok {
		t.Fatal("oldest job still addressable beyond retention bound")
	}
	if _, ok := e.Get(ids[3]); !ok {
		t.Fatal("newest job was forgotten")
	}
}

// TestSubmitTask drives the arbitrary-task path the grid endpoint uses:
// caller-provided run func, explicit key, snapshot label, store dedup.
func TestSubmitTask(t *testing.T) {
	var calls atomic.Int64
	e := newTestEngine(t, Options{})
	run := func(ctx context.Context) (*report.Result, error) {
		calls.Add(1)
		if progress := experiments.ProgressFrom(ctx); progress == nil {
			t.Error("task run func context carries no progress observer")
		}
		return stubResult("grid-abc123"), nil
	}

	j, err := e.SubmitTask("grid-abc123", "grid-abc123-test-r1-s7", testConfig(), nil, run)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateDone || snap.Error != nil {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Experiment != "grid-abc123" || snap.Key != "grid-abc123-test-r1-s7" {
		t.Fatalf("label/key = %q/%q", snap.Experiment, snap.Key)
	}
	if calls.Load() != 1 {
		t.Fatalf("run func called %d times", calls.Load())
	}

	// The completed result is stored under the task key: resubmitting the
	// same key is born done+cached with zero executions — the property that
	// makes grid results survive restarts when the store is disk-backed.
	j2, err := e.SubmitTask("grid-abc123", "grid-abc123-test-r1-s7", testConfig(), nil, run)
	if err != nil {
		t.Fatal(err)
	}
	if s2 := j2.Snapshot(); s2.State != StateDone || !s2.Cached || s2.Result == nil {
		t.Fatalf("resubmission snapshot = %+v", s2)
	}
	if calls.Load() != 1 {
		t.Fatalf("resubmission re-ran the task: %d calls", calls.Load())
	}

	// A different key is different work.
	j3, err := e.SubmitTask("grid-def456", "grid-def456-test-r1-s7", testConfig(), nil, run)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j3)
	if calls.Load() != 2 {
		t.Fatalf("distinct key did not run: %d calls", calls.Load())
	}

	if _, err := e.SubmitTask("grid-x", "grid-x-test-r1-s7", testConfig(), nil, nil); err == nil {
		t.Fatal("nil run func accepted")
	}
}
