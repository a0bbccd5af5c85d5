package ledger

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// fakeResult builds a deterministic, structurally interesting RunResult.
func fakeResult(replica int) *core.RunResult {
	return &core.RunResult{
		Variant:      core.Impl,
		Replica:      replica,
		TestAccuracy: 0.75 + float64(replica)/1000,
		Predictions:  []int{0, 3, 1, replica % 7},
		Weights:      []float32{0.5, -1.25, float32(replica), float32(math.Pi)},
		EpochLoss:    []float64{2.3, 1.1, 0.4 + float64(replica)},
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	l := Memory(0)
	if _, ok := l.Get("cell-a", 0); ok {
		t.Fatal("empty ledger reported a hit")
	}
	want := fakeResult(0)
	if err := l.Put("cell-a", 0, want); err != nil {
		t.Fatal(err)
	}
	got, ok := l.Get("cell-a", 0)
	if !ok || !got.Equal(want) {
		t.Fatalf("round trip: ok=%v res=%+v", ok, got)
	}
	if _, ok := l.Get("cell-a", 1); ok {
		t.Fatal("missing replica index reported a hit")
	}
	if _, ok := l.Get("cell-b", 0); ok {
		t.Fatal("missing cell reported a hit")
	}
	if l.Warm("cell-a", 3) != 1 {
		t.Fatalf("warm = %d, want 1", l.Warm("cell-a", 3))
	}
}

func TestDiskRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Put("cell|with spaces|and-pipes", i, fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh ledger over the same directory serves everything bit-exactly.
	l2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 3 {
		t.Fatalf("reopened ledger indexes %d records, want 3", l2.Len())
	}
	for i := 0; i < 3; i++ {
		got, ok := l2.Get("cell|with spaces|and-pipes", i)
		if !ok || !got.Equal(fakeResult(i)) {
			t.Fatalf("replica %d after reopen: ok=%v res=%+v", i, ok, got)
		}
	}
	if l2.Trains() != 0 {
		t.Fatalf("reopened ledger counts %d trains, want 0 (nothing recorded)", l2.Trains())
	}
	if got := l2.Warm("cell|with spaces|and-pipes", 10); got != 3 {
		t.Fatalf("warm = %d, want 3", got)
	}
}

func TestEvictionBoundsDirectory(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Put("c", i, fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 2 {
		t.Fatalf("capacity-2 ledger holds %d", l.Len())
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+fileExt))
	if len(files) != 2 {
		t.Fatalf("directory holds %d record files, want 2 (eviction must unlink)", len(files))
	}
	// The two newest survive; the oldest were evicted.
	for i := 0; i < 2; i++ {
		if _, ok := l.Get("c", i); ok {
			t.Fatalf("evicted replica %d still served", i)
		}
	}
	for i := 2; i < 4; i++ {
		if _, ok := l.Get("c", i); !ok {
			t.Fatalf("retained replica %d missing", i)
		}
	}
}

func TestCorruptRecordIsDroppedNotServed(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, 0)
	if err := l.Put("c", 0, fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	path := l.disk.File(stem("c", 0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // flip a checksum byte
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l2.Get("c", 0); ok {
		t.Fatal("corrupt record served")
	}
	if l2.Len() != 0 {
		t.Fatalf("corrupt record still indexed: len %d", l2.Len())
	}
}

func TestGCRemovesColdRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, 0)
	for i := 0; i < 5; i++ {
		if err := l.Put("c", i, fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch replica 0 so it is MRU and survives.
	if _, ok := l.Get("c", 0); !ok {
		t.Fatal("replica 0 missing pre-GC")
	}
	if removed := l.GC(2); removed != 3 {
		t.Fatalf("GC removed %d, want 3", removed)
	}
	if _, ok := l.Get("c", 0); !ok {
		t.Fatal("MRU record evicted by GC")
	}
	if _, ok := l.Get("c", 4); !ok {
		t.Fatal("second-warmest record evicted by GC")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+fileExt))
	if len(files) != 2 {
		t.Fatalf("post-GC directory holds %d files, want 2", len(files))
	}
}

func TestEntriesReadHeadersLazily(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, 0)
	if err := l.Put("the-cell", 1, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	l2, _ := Open(dir, 0)
	infos := l2.Entries()
	if len(infos) != 1 {
		t.Fatalf("entries = %d, want 1", len(infos))
	}
	in := infos[0]
	if in.Cell != "the-cell" || in.Replica != 1 || in.Bytes == 0 || in.Loaded {
		t.Fatalf("info = %+v (cell/replica must come from the header without loading)", in)
	}
	if in.TestAccuracy != fakeResult(1).TestAccuracy {
		t.Fatalf("header accuracy = %v", in.TestAccuracy)
	}
}

func TestTrainsCounter(t *testing.T) {
	l := Memory(0)
	for i := 0; i < 3; i++ {
		if err := l.Put("c", i, fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Trains() != 3 {
		t.Fatalf("trains = %d, want 3", l.Trains())
	}
}
