package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/recdir"
	"repro/internal/report"
)

// compactJSON normalizes raw JSON for comparison: the journal's pretty
// encoder re-indents embedded RawMessage payloads without changing them
// semantically.
func compactJSON(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compacting %s: %v", raw, err)
	}
	return buf.String()
}

func newTestJournal(t *testing.T) *Journal {
	t.Helper()
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	j := newTestJournal(t)
	e := journalEntry(KindTask, "grid-abc", "grid-abc-test-r2-s7", testConfig(), json.RawMessage(`{"tasks":["x"]}`))
	e.Replicas = 2
	if err := j.Record(e); err != nil {
		t.Fatal(err)
	}
	entries, err := j.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	got := entries[0]
	if got.Kind != KindTask || got.Experiment != "grid-abc" || got.Key != "grid-abc-test-r2-s7" {
		t.Fatalf("entry = %+v", got)
	}
	if compactJSON(t, got.Payload) != `{"tasks":["x"]}` {
		t.Fatalf("payload = %s", got.Payload)
	}
	cfg, err := got.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scale != testConfig().Scale || cfg.Replicas != 2 || cfg.Seed != 7 {
		t.Fatalf("config = %+v", cfg)
	}
	j.Remove(got.Key)
	if n := j.Len(); n != 0 {
		t.Fatalf("after remove Len = %d", n)
	}
	j.Remove("never-existed") // no-op, must not panic or error
}

func TestJournalRejectsTraversalKeys(t *testing.T) {
	j := newTestJournal(t)
	for _, key := range []string{"", "../escape", "a/b", `a\b`, ".hidden"} {
		if err := j.Record(JournalEntry{Kind: KindExperiment, Key: key, Scale: "test"}); err == nil {
			t.Fatalf("key %q accepted", key)
		}
	}
}

// TestJournalQuarantinesCorruptEntries: an undecodable entry is moved
// aside with a reason, never deleted, and does not block the others.
func TestJournalQuarantinesCorruptEntries(t *testing.T) {
	j := newTestJournal(t)
	if err := j.Record(journalEntry(KindExperiment, "fig1", "fig1-test-r1-s7", testConfig(), nil)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(j.Dir(), "torn.json"), []byte(`{"kind":"ta`), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := j.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != "fig1-test-r1-s7" {
		t.Fatalf("entries = %+v", entries)
	}
	if j.Quarantined() != 1 || recdir.QuarantineCount(j.Dir()) != 1 {
		t.Fatalf("quarantined = %d, on disk = %d", j.Quarantined(), recdir.QuarantineCount(j.Dir()))
	}
	if reason := recdir.QuarantineReason(j.Dir(), "torn.json"); reason == "" {
		t.Fatal("no quarantine reason recorded")
	}
}

// TestJournalTornWriteNeverPublishesPartial: tearing the journal write
// fails Record, and the half-written temp file is quarantined (not
// trusted, not deleted) by the next scan.
func TestJournalTornWrite(t *testing.T) {
	j := newTestJournal(t)
	defer faults.Reset()
	faults.Arm("journal.write", faults.Injection{Err: errors.New("disk gone"), Count: 1})
	if err := j.Record(journalEntry(KindExperiment, "fig1", "fig1-test-r1-s7", testConfig(), nil)); err == nil {
		t.Fatal("record with injected write fault succeeded")
	}
	if n := j.Len(); n != 0 {
		t.Fatalf("failed record left %d entries", n)
	}
}

// TestJournalFollowsDetachedJobLifecycle pins the journal contract:
// detached submissions are recorded, completion and explicit
// cancellation settle the entry, and engine shutdown preserves it.
func TestJournalFollowsDetachedJobLifecycle(t *testing.T) {
	journal := newTestJournal(t)
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	e := newTestEngine(t, Options{Journal: journal, Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return stubResult(id), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})

	// Attached jobs are not durable: no one owes their waiters a restart.
	att, err := e.SubmitAttached("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if n := journal.Len(); n != 0 {
		t.Fatalf("attached submission journaled (%d entries)", n)
	}
	// A detached join upgrades the same job — now it must be durable.
	det, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if det != att {
		t.Fatal("detached submission did not join the live attached job")
	}
	if n := journal.Len(); n != 1 {
		t.Fatalf("upgraded job not journaled (%d entries)", n)
	}
	close(release)
	waitTerminal(t, det)
	if n := journal.Len(); n != 0 {
		t.Fatalf("done job still journaled (%d entries)", n)
	}

	// Explicit cancellation is a verdict: the entry goes too.
	release = make(chan struct{})
	cfg2 := testConfig()
	cfg2.Seed = 8
	j2, err := e.Submit("fig1", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if n := journal.Len(); n != 1 {
		t.Fatalf("live detached job not journaled (%d entries)", n)
	}
	if _, ok := e.Cancel(j2.ID()); !ok {
		t.Fatal("cancel failed")
	}
	waitTerminal(t, j2)
	if n := journal.Len(); n != 0 {
		t.Fatalf("user-cancelled job still journaled (%d entries)", n)
	}

	// Engine shutdown is not a verdict: the entry survives for -resume.
	cfg3 := testConfig()
	cfg3.Seed = 9
	j3, err := e.Submit("fig1", cfg3)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	e.Close()
	waitTerminal(t, j3)
	if n := journal.Len(); n != 1 {
		t.Fatalf("shutdown-cancelled job lost its journal entry (%d entries)", n)
	}
}

// TestRecoverResubmitsJournaledWork: a fresh engine over the same
// journal and store resubmits exactly what was owed — entries whose
// results landed before the crash settle as cached.
func TestRecoverResubmitsJournaledWork(t *testing.T) {
	dir := t.TempDir()
	journal, err := OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(filepath.Join(dir, "results"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crashed predecessor: two experiment entries — one whose
	// result made it into the store, one still owed — and one task entry.
	owedCfg := testConfig()
	settledCfg := testConfig()
	settledCfg.Seed = 8
	for _, entry := range []JournalEntry{
		journalEntry(KindExperiment, "fig1", ResultKey("fig1", owedCfg), owedCfg, nil),
		journalEntry(KindExperiment, "fig1", ResultKey("fig1", settledCfg), settledCfg, nil),
		journalEntry(KindTask, "grid-abc", "grid-abc-test-r1-s7", owedCfg, json.RawMessage(`{"devices":["V100"]}`)),
	} {
		if err := journal.Record(entry); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Put(ResultKey("fig1", settledCfg), stubResult("fig1")); err != nil {
		t.Fatal(err)
	}

	var ranExperiments, ranTasks int
	e := newTestEngine(t, Options{Journal: journal, Store: store,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			ranExperiments++
			return stubResult(id), nil
		}})
	var taskPayload string
	n, err := e.Recover(func(entry JournalEntry) (func(context.Context) (*report.Result, error), error) {
		taskPayload = compactJSON(t, entry.Payload)
		return func(context.Context) (*report.Result, error) {
			ranTasks++
			return stubResult(entry.Experiment), nil
		}, nil
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n != 3 {
		t.Fatalf("recovered = %d, want 3", n)
	}
	if taskPayload != `{"devices":["V100"]}` {
		t.Fatalf("resolver saw payload %s", taskPayload)
	}
	for _, j := range e.Jobs() {
		waitTerminal(t, j)
	}
	if ranExperiments != 1 || ranTasks != 1 {
		t.Fatalf("ran %d experiments and %d tasks, want 1 and 1 (settled entry must serve cached)", ranExperiments, ranTasks)
	}
	if n := journal.Len(); n != 0 {
		t.Fatalf("%d entries left after recovery completed", n)
	}
}

// TestRecoverKeepsUnresolvableEntries: a resolver failure reports the
// entry and leaves it journaled — owed work is never silently dropped.
func TestRecoverKeepsUnresolvableEntries(t *testing.T) {
	journal := newTestJournal(t)
	if err := journal.Record(journalEntry(KindTask, "grid-abc", "grid-abc-test-r1-s7", testConfig(), nil)); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Options{Journal: journal})
	n, err := e.Recover(func(entry JournalEntry) (func(context.Context) (*report.Result, error), error) {
		return nil, fmt.Errorf("no payload")
	})
	if n != 0 || err == nil {
		t.Fatalf("recover = %d, %v; want 0 and an error", n, err)
	}
	if journal.Len() != 1 {
		t.Fatal("unresolvable entry was dropped from the journal")
	}
	// No resolver at all is the same contract.
	if n, err := e.Recover(nil); n != 0 || err == nil {
		t.Fatalf("recover without resolver = %d, %v", n, err)
	}
}

// TestNonTransientFailsFast: a failing runner is called once and its job
// fails; the engine never retries.
func TestNonTransientFailsFast(t *testing.T) {
	attempts := 0
	e := newTestEngine(t, Options{
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			attempts++
			return nil, errors.New("deterministic bug")
		}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateFailed || attempts != 1 {
		t.Fatalf("attempts = %d, snapshot = %+v", attempts, snap)
	}
}

// TestPanicBecomesTypedFailure: a panicking runner fails its job with
// kind "panic" and the worker survives to run the next job.
func TestPanicBecomesTypedFailure(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		if cfg.Seed == 7 {
			panic("boom")
		}
		return stubResult(id), nil
	}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateFailed || snap.Error == nil || snap.Error.Kind != ErrKindPanic {
		t.Fatalf("snapshot = %+v", snap)
	}
	// The single worker must still be alive to run this.
	cfg2 := testConfig()
	cfg2.Seed = 8
	j2, err := e.Submit("fig1", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, j2); snap.State != StateDone {
		t.Fatalf("post-panic job = %+v", snap)
	}
}

// TestInjectedPanicViaFaultPoint: the "jobs.run" fault point can panic
// the execution path itself; the engine contains it identically.
func TestInjectedPanicViaFaultPoint(t *testing.T) {
	defer faults.Reset()
	faults.Arm("jobs.run", faults.Injection{Panic: "injected", Count: 1})
	e := newTestEngine(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		return stubResult(id), nil
	}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateFailed || snap.Error.Kind != ErrKindPanic {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestWatchdogTimeout: an attempt exceeding JobTimeout fails with kind
// "timeout" — not "cancelled", which is reserved for the caller's verdict.
func TestWatchdogTimeout(t *testing.T) {
	e := newTestEngine(t, Options{JobTimeout: 20 * time.Millisecond,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateFailed || snap.Error == nil || snap.Error.Kind != ErrKindTimeout {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestWatchdogDoesNotMaskUserCancel: a cancel arriving while the
// watchdog is armed still reports as cancelled.
func TestWatchdogDoesNotMaskUserCancel(t *testing.T) {
	started := make(chan struct{})
	e := newTestEngine(t, Options{JobTimeout: time.Hour,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	e.Cancel(j.ID())
	snap := waitTerminal(t, j)
	if snap.State != StateCancelled || snap.Error.Kind != ErrKindCancelled {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestDrainWaitsForInFlight: Drain refuses new work, lets running jobs
// finish, and returns cleanly once they have.
func TestDrainWaitsForInFlight(t *testing.T) {
	journal := newTestJournal(t)
	started := make(chan struct{})
	release := make(chan struct{})
	e := newTestEngine(t, Options{Journal: journal,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			close(started)
			<-release
			return stubResult(id), nil
		}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	drained := make(chan error, 1)
	go func() { drained <- e.Drain(context.Background()) }()
	// Draining refuses new submissions (poll: the flag flips inside Drain).
	deadline := time.Now().Add(5 * time.Second)
	for !e.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("Draining() never became true")
		}
		time.Sleep(time.Millisecond)
	}
	cfg2 := testConfig()
	cfg2.Seed = 8
	if _, err := e.Submit("fig1", cfg2); err == nil {
		t.Fatal("submit during drain succeeded")
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if snap := j.Snapshot(); snap.State != StateDone {
		t.Fatalf("drained job = %+v", snap)
	}
	if journal.Len() != 0 {
		t.Fatal("completed job still journaled after drain")
	}
}

// TestDrainDeadlineCancelsAndPreserves: past the deadline, Drain cancels
// what is left but keeps the journal entries — the next process resumes
// them.
func TestDrainDeadlineCancelsAndPreserves(t *testing.T) {
	journal := newTestJournal(t)
	started := make(chan struct{})
	e := newTestEngine(t, Options{Journal: journal,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain = %v, want deadline exceeded", err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateCancelled {
		t.Fatalf("snapshot = %+v", snap)
	}
	if journal.Len() != 1 {
		t.Fatal("drain-cancelled job lost its journal entry")
	}
}

// TestJournalQuarantinesForeignKey: an entry whose key is not its own
// file name (here a tampered "../" key aimed at the result store beside
// the journal) is quarantined with a reason that names the mismatch.
// Recovery must never resubmit it — its terminal Remove would unlink a
// stored result — and must leave the store untouched.
func TestJournalQuarantinesForeignKey(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("fig2-test-r1-s7", stubResult("fig2")); err != nil {
		t.Fatal(err)
	}
	tampered := journalEntry(KindExperiment, "fig2", "../fig2-test-r1-s7", testConfig(), nil)
	b, err := json.Marshal(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(journal.Dir(), "fig2-test-r1-s7.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Options{Journal: journal, Store: store,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			return stubResult(id), nil
		}})
	n, _ := e.Recover(nil)
	for _, j := range e.Jobs() {
		waitTerminal(t, j)
	}
	if n != 0 {
		t.Fatalf("recovered %d jobs from a tampered entry", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig2-test-r1-s7.json")); err != nil {
		t.Fatalf("stored result gone after recovery: %v", err)
	}
	if journal.Quarantined() != 1 || journal.Len() != 0 {
		t.Fatalf("quarantined = %d, journaled = %d; want 1 and 0", journal.Quarantined(), journal.Len())
	}
	if reason := recdir.QuarantineReason(journal.Dir(), "fig2-test-r1-s7.json"); !strings.Contains(reason, `"../fig2-test-r1-s7"`) {
		t.Fatalf("reason = %q, want it to name the foreign key", reason)
	}
}

// TestRecoverRefusesMismatchedExperimentKey: an experiment entry whose
// key is another request's result key (fig1's request journaled under
// fig2's key) is quarantined, not recovered — otherwise the store would
// serve fig1's result to every later fig2 submission at that config.
func TestRecoverRefusesMismatchedExperimentKey(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	foreign := ResultKey("fig2", testConfig())
	if err := journal.Record(journalEntry(KindExperiment, "fig1", foreign, testConfig(), nil)); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Options{Journal: journal, Store: store,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			return stubResult(id), nil
		}})
	n, _ := e.Recover(nil)
	for _, j := range e.Jobs() {
		waitTerminal(t, j)
	}
	if n != 0 {
		t.Fatalf("recovered %d jobs from a mismatched entry", n)
	}
	if res, ok := store.Get(foreign); ok {
		t.Fatalf("store serves %s's result under %s", res.Experiment, foreign)
	}
	if journal.Quarantined() != 1 || journal.Len() != 0 {
		t.Fatalf("quarantined = %d, journaled = %d; want 1 and 0", journal.Quarantined(), journal.Len())
	}
	if reason := recdir.QuarantineReason(journal.Dir(), foreign+".json"); !strings.Contains(reason, "fig1-test-r1-s7") {
		t.Fatalf("reason = %q, want it to name the request's own key", reason)
	}
}

// TestJournalReasonStatesFailure: an entry that parses but lacks a kind
// is quarantined with that as its reason, not a nil decode error.
func TestJournalReasonStatesFailure(t *testing.T) {
	j := newTestJournal(t)
	if err := os.WriteFile(filepath.Join(j.Dir(), "fig1-test-r1-s7.json"), []byte(`{"key":"fig1-test-r1-s7"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if entries, err := j.Entries(); err != nil || len(entries) != 0 {
		t.Fatalf("entries = %+v, %v", entries, err)
	}
	reason := recdir.QuarantineReason(j.Dir(), "fig1-test-r1-s7.json")
	if !strings.Contains(reason, "no kind") || strings.Contains(reason, "<nil>") {
		t.Fatalf("reason = %q", reason)
	}
}

// FuzzJournalEntries: whatever bytes sit in a journal file, Entries
// never panics, returns only entries that name their own file with a
// plain key, and moves every file it does not return into quarantine
// byte for byte — never deletes it.
func FuzzJournalEntries(f *testing.F) {
	const stem = "fig1-test-r1-s7"
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := OpenJournal(filepath.Join(t.TempDir(), "journal"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(j.Dir(), stem+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := j.Entries()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Key != stem || recdir.CheckKey(e.Key) != nil || e.Kind == "" {
				t.Fatalf("returned entry %+v for file %s.json", e, stem)
			}
		}
		if len(entries) == 1 {
			return
		}
		kept, err := os.ReadFile(filepath.Join(j.Dir(), recdir.QuarantineDir, stem+".json"))
		if err != nil || !bytes.Equal(kept, data) || j.Quarantined() != 1 {
			t.Fatalf("undecodable entry not quarantined intact (quarantined %d): %v", j.Quarantined(), err)
		}
	})
}
