package jobs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/recdir"
	"repro/internal/report"
)

func stubResult(id string) *report.Result {
	tb := report.New("stub", "k", "v")
	tb.AddCells(report.Str(id), report.Float(1.25, 2).WithUnit("%"))
	return &report.Result{Experiment: id, Title: "stub " + id, Kind: report.KindTable,
		Config: report.ConfigEcho{Scale: "test", Replicas: 1, Seed: 7}, Tables: []*report.Table{tb}}
}

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

// TestStoreLRUEviction pins the extracted LRU's behavior: capacity is
// enforced, a Get refreshes recency, and eviction drops both the index
// entry and the on-disk file.
func TestStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if err := s.Put(k, stubResult(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("a"); !ok { // refresh a; b becomes the eviction candidate
		t.Fatal("a missing")
	}
	if err := s.Put("c", stubResult("c")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, err := os.Stat(filepath.Join(dir, "b.json")); !os.IsNotExist(err) {
		t.Fatalf("evicted entry's file still on disk (err = %v)", err)
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("%s missing", k)
		}
		if _, err := os.Stat(filepath.Join(dir, k+".json")); err != nil {
			t.Fatalf("%s.json missing: %v", k, err)
		}
	}
	if got := s.Keys(); len(got) != 2 || got[0] != "c" || got[1] != "a" {
		t.Fatalf("LRU order = %v, want [c a]", got)
	}
}

// TestStoreMemoryOnly proves dir "" never touches the filesystem API
// paths and still enforces the LRU contract.
func TestStoreMemoryOnly(t *testing.T) {
	s, err := Open("", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", stubResult("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", stubResult("b")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if res, ok := s.Get("b"); !ok || res.Experiment != "b" {
		t.Fatalf("b = %+v, %v", res, ok)
	}
}

// TestStoreReopenRoundTrip is the durability core: results written by
// one Store are served — bit-identically through the JSON round trip —
// by a second Store opened on the same directory, newest first.
func TestStoreReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := stubResult("fig1")
	if err := s.Put("fig1-test-r1-s7", want); err != nil {
		t.Fatal(err)
	}
	// Different mtimes order the reopened index.
	old := time.Now().Add(-time.Hour)
	if err := s.Put("fig2-test-r1-s7", stubResult("fig2")); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(filepath.Join(dir, "fig2-test-r1-s7.json"), old, old); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reopened len = %d, want 2", re.Len())
	}
	if keys := re.Keys(); keys[0] != "fig1-test-r1-s7" {
		t.Fatalf("newest file should be MRU after reopen, got order %v", keys)
	}
	got, ok := re.Get("fig1-test-r1-s7")
	if !ok {
		t.Fatal("persisted result missing after reopen")
	}
	wantJSON := renderJSON(t, want)
	if gotJSON := renderJSON(t, got); gotJSON != wantJSON {
		t.Fatalf("round-tripped result differs:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
}

// TestStoreReopenEvictsBeyondCapacity: opening with a smaller capacity
// keeps the newest results and deletes the rest from disk.
func TestStoreReopenEvictsBeyondCapacity(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i, k := range []string{"k0", "k1", "k2"} {
		if err := s.Put(k, stubResult(k)); err != nil {
			t.Fatal(err)
		}
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, k+".json"), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("len = %d, want 2", re.Len())
	}
	if _, ok := re.Get("k0"); ok {
		t.Fatal("oldest result should have been evicted at reopen")
	}
	if _, err := os.Stat(filepath.Join(dir, "k0.json")); !os.IsNotExist(err) {
		t.Fatalf("evicted file still present (err = %v)", err)
	}
}

// TestStoreIgnoresGarbage: leftover temp files are cleaned at open, and
// a corrupt published file is a miss, not a crash.
func TestStoreIgnoresGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, recdir.TempPrefix+"x-123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, recdir.TempPrefix+"x-123")); !os.IsNotExist(err) {
		t.Fatalf("temp file survived open (err = %v)", err)
	}
	if _, ok := s.Get("bad"); ok {
		t.Fatal("corrupt file served as a result")
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d after dropping corrupt entry, want 0", s.Len())
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	s, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"../escape", "a/b", ".hidden"} {
		if err := s.Put(k, stubResult("x")); err == nil {
			t.Errorf("key %q accepted", k)
		}
	}
	if err := s.Put("ok", nil); err == nil {
		t.Error("nil result accepted")
	}
}

func renderJSON(t *testing.T, res *report.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
