package recdir

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
)

func openDir(t *testing.T) *Dir {
	t.Helper()
	d, _, err := Open(t.TempDir(), "test", ".json")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMovePreservesFileAndReason(t *testing.T) {
	d := openDir(t)
	dir := d.Path()
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Quarantine("bad.json", "decode failure: unexpected EOF"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.json")); !os.IsNotExist(err) {
		t.Fatalf("original still present (err = %v)", err)
	}
	moved, err := os.ReadFile(filepath.Join(dir, QuarantineDir, "bad.json"))
	if err != nil || string(moved) != "{torn" {
		t.Fatalf("quarantined content = %q, %v", moved, err)
	}
	if got := QuarantineReason(dir, "bad.json"); got != "decode failure: unexpected EOF" {
		t.Fatalf("reason = %q", got)
	}
	if got := QuarantineCount(dir); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	if got := d.Quarantined(); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
}

func TestMoveMissingFileErrors(t *testing.T) {
	d := openDir(t)
	if err := d.Quarantine("ghost", "x"); err == nil {
		t.Fatal("moving a missing file succeeded")
	}
	if d.Quarantined() != 0 {
		t.Fatal("a failed move was counted")
	}
}

func TestListEmptyWhenNeverQuarantined(t *testing.T) {
	dir := t.TempDir()
	if QuarantineCount(dir) != 0 {
		t.Fatal("count != 0")
	}
	if QuarantineReason(dir, "x") != "" {
		t.Fatal("reason for unknown name not empty")
	}
}

func TestRequarantineKeepsLatest(t *testing.T) {
	d := openDir(t)
	dir := d.Path()
	for i, content := range []string{"first", "second"} {
		if err := os.WriteFile(filepath.Join(dir, "f"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := d.Quarantine("f", "round"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, QuarantineDir, "f"))
	if err != nil || string(got) != "second" {
		t.Fatalf("kept %q, %v", got, err)
	}
	if QuarantineCount(dir) != 1 {
		t.Fatalf("count = %d", QuarantineCount(dir))
	}
}

func TestCheckKeyRefusesAllButPlainNames(t *testing.T) {
	for _, bad := range []string{"", ".", "..", "../x", "a/b", `a\b`, ".hidden", TempPrefix + "x", "x/"} {
		if CheckKey(bad) == nil {
			t.Errorf("CheckKey(%q) accepted", bad)
		}
	}
	for _, good := range []string{"fig1-test-r1-s7", "0123abcd-r3", "upload-1.bin", "a..b"} {
		if err := CheckKey(good); err != nil {
			t.Errorf("CheckKey(%q) = %v", good, err)
		}
	}
}

// TestScanOrdersByAgeAndQuarantinesTemps: Open lists records oldest
// first, ignores subdirectories and foreign files, and moves temp files
// aside instead of deleting them.
func TestScanOrdersByAgeAndQuarantinesTemps(t *testing.T) {
	d := openDir(t)
	dir := d.Path()
	base := time.Now().Add(-time.Hour)
	for i, key := range []string{"new", "old", "mid"} {
		if err := d.Publish(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		ts := base.Add(time.Duration([]int{3, 1, 2}[i]) * time.Minute)
		if err := os.Chtimes(d.File(key), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{TempPrefix + "new-123", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	d2, keys, err := Open(dir, "test", ".json")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"old", "mid", "new"}; !slices.Equal(keys, want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	if d2.Quarantined() != 1 || QuarantineReason(dir, TempPrefix+"new-123") == "" {
		t.Fatalf("temp file not quarantined: counter %d", d2.Quarantined())
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatalf("foreign file touched: %v", err)
	}
}

// TestLoadOutcomes: Load tells a missing record, an unreadable one
// (left in place) and a corrupt one (quarantined with decode's error)
// apart.
func TestLoadOutcomes(t *testing.T) {
	defer faults.Reset()
	d := openDir(t)
	if err := d.Publish("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	var got []byte
	read := func(r io.Reader) (err error) { got, err = io.ReadAll(r); return err }
	if err := d.Load("k", read); err != nil || string(got) != "payload" {
		t.Fatalf("load = %q, %v", got, err)
	}
	if err := d.Load("missing", read); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing record: %v", err)
	}
	faults.Arm("test.read", faults.Injection{Err: errors.New("EIO"), Count: 1})
	if err := d.Load("k", read); !errors.Is(err, ErrUnreadable) {
		t.Fatalf("failed read: %v", err)
	}
	if d.Quarantined() != 0 {
		t.Fatal("a read error quarantined the record")
	}
	bad := errors.New("checksum mismatch")
	if err := d.Load("k", func(io.Reader) error { return bad }); err != bad {
		t.Fatalf("corrupt record: %v", err)
	}
	if _, err := os.Stat(d.File("k")); !os.IsNotExist(err) || d.Quarantined() != 1 {
		t.Fatalf("corrupt record not quarantined (stat %v, counter %d)", err, d.Quarantined())
	}
	if reason := QuarantineReason(d.Path(), "k.json"); !strings.Contains(reason, "checksum mismatch") {
		t.Fatalf("reason = %q", reason)
	}
}

// TestPublishRefusesEscapingKeys: no key or name reaches outside the
// directory, whether published, removed, quarantined or preserved.
func TestPublishRefusesEscapingKeys(t *testing.T) {
	root := t.TempDir()
	d, _, err := Open(filepath.Join(root, "dir"), "test", ".json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "victim.json"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if d.Publish("../escaped", []byte("x")) == nil {
		t.Fatal("published outside the directory")
	}
	if d.Quarantine("../victim.json", "x") == nil {
		t.Fatal("quarantined a file outside the directory")
	}
	d.Remove("../victim")
	if Preserve(d.Path(), "../../escaped.bin", []byte("x"), "x") == nil {
		t.Fatal("preserved bytes outside the quarantine")
	}
	entries, _ := os.ReadDir(root)
	if len(entries) != 2 {
		t.Fatalf("root holds %d entries, want dir/ and victim.json", len(entries))
	}
}

// TestMemoryOnlyDirHoldsNothing: an empty path never touches the disk
// but still fires the probe fault point.
func TestMemoryOnlyDirHoldsNothing(t *testing.T) {
	defer faults.Reset()
	d, keys, err := Open("", "test", ".json")
	if err != nil || keys != nil {
		t.Fatalf("open = %v, %v", keys, err)
	}
	if err := d.Publish("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := d.Load("k", func(io.Reader) error { return nil }); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("load = %v", err)
	}
	if err := d.Writable(); err != nil {
		t.Fatal(err)
	}
	faults.Arm("test.probe", faults.Injection{})
	if err := d.Writable(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("probe fault not surfaced: %v", err)
	}
}
