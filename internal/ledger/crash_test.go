package ledger

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/recdir"
)

// TestTornWriteQuarantinedOnReread simulates the headline crash: a
// filesystem acknowledges a record write it never completed (the
// "ledger.write" fault point truncates the payload mid-record), the
// process dies, and a successor opens the directory. The torn record
// must degrade to a miss, move to quarantine with a reason — never a
// silent delete — and the key must accept a fresh, bit-identical re-put.
func TestTornWriteQuarantinedOnReread(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	faults.Arm("ledger.write", faults.Injection{Truncate: true, TruncateAt: 10, Count: 1})
	if err := l.Put("c", 0, fakeResult(0)); err != nil {
		t.Fatalf("torn put surfaced an error (the write was acknowledged): %v", err)
	}
	// The truncated record was published under the real name.
	if fi, err := os.Stat(l.disk.File(stem("c", 0))); err != nil || fi.Size() != 10 {
		t.Fatalf("torn record: %v, size %d", err, fi.Size())
	}

	// The successor process.
	l2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l2.Get("c", 0); ok {
		t.Fatal("torn record served")
	}
	if l2.Quarantined() != 1 || recdir.QuarantineCount(dir) != 1 {
		t.Fatalf("quarantined = %d, on disk = %d, want 1 and 1", l2.Quarantined(), recdir.QuarantineCount(dir))
	}
	name := stem("c", 0) + fileExt
	if reason := recdir.QuarantineReason(dir, name); !strings.Contains(reason, "decode") {
		t.Fatalf("reason = %q", reason)
	}

	// The key is not wedged: a healthy re-put round-trips bit-exactly
	// across another reopen.
	if err := l2.Put("c", 0, fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := l3.Get("c", 0)
	if !ok || !got.Equal(fakeResult(0)) {
		t.Fatalf("re-put after quarantine: ok=%v res=%+v", ok, got)
	}
	// The quarantined evidence is still there.
	if recdir.QuarantineCount(dir) != 1 {
		t.Fatalf("quarantine count after recovery = %d", recdir.QuarantineCount(dir))
	}
}

// TestCrashBetweenTempAndRename: a writer that died before publishing
// leaves a temp file; the next Open quarantines it as crash evidence
// instead of deleting it, and never serves it.
func TestCrashBetweenTempAndRename(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, recdir.TempPrefix+"record-123"), []byte("half a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatalf("orphaned temp file indexed: len %d", l.Len())
	}
	if l.Quarantined() != 1 || recdir.QuarantineCount(dir) != 1 {
		t.Fatalf("quarantined = %d, on disk = %d", l.Quarantined(), recdir.QuarantineCount(dir))
	}
}

// TestInjectedWriteErrorSurfaces: a hard write failure (not a torn
// write) propagates to the caller so degraded durability is visible.
func TestInjectedWriteErrorSurfaces(t *testing.T) {
	defer faults.Reset()
	l, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	faults.Arm("ledger.write", faults.Injection{Err: errors.New("device offline"), Count: 1})
	if err := l.Put("c", 0, fakeResult(0)); err == nil {
		t.Fatal("injected write error did not surface")
	}
	// The record still serves from memory (durability degraded, not
	// correctness), and the next put persists.
	if _, ok := l.Get("c", 0); !ok {
		t.Fatal("record lost from memory after failed persist")
	}
}

// TestWritableProbe: the readiness probe passes on a healthy directory
// and fails through the "ledger.probe" fault point.
func TestWritableProbe(t *testing.T) {
	defer faults.Reset()
	l, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Writable(); err != nil {
		t.Fatalf("healthy ledger not writable: %v", err)
	}
	faults.Arm("ledger.probe", faults.Injection{})
	if err := l.Writable(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("probe fault not surfaced: %v", err)
	}
	faults.Reset()
	// The probe leaves no debris behind.
	files, _ := os.ReadDir(l.Dir())
	for _, f := range files {
		if strings.HasPrefix(f.Name(), recdir.TempPrefix) {
			t.Fatalf("probe left %s behind", f.Name())
		}
	}
}

// TestReadErrorIsNotCorruption: a failed read (the "ledger.read" fault
// point, armed once) is a miss that leaves the record on disk and
// indexed — once the fault clears, the next Get serves it bit-exactly
// instead of retraining.
func TestReadErrorIsNotCorruption(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put("c", 0, fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	disarm := faults.Arm("ledger.read", faults.Injection{Err: errors.New("EIO"), Count: 1})
	if _, ok := l2.Get("c", 0); ok {
		t.Fatal("record served through a failed read")
	}
	disarm()
	if l2.Quarantined() != 0 || recdir.QuarantineCount(dir) != 0 || l2.Len() != 1 {
		t.Fatalf("read error quarantined %d / on disk %d, len %d; want 0, 0, 1", l2.Quarantined(), recdir.QuarantineCount(dir), l2.Len())
	}
	if got, ok := l2.Get("c", 0); !ok || !got.Equal(fakeResult(0)) {
		t.Fatalf("second Get after the fault cleared: ok=%v", ok)
	}
}
