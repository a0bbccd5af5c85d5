package checkpoint

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

func sampleResult() *core.RunResult {
	return &core.RunResult{
		Variant:      core.AlgoImpl,
		Replica:      12,
		TestAccuracy: 0.8125,
		Predictions:  []int{3, 0, 9, 9, 1},
		Weights:      []float32{0, float32(math.Copysign(0, -1)), 1.5, float32(math.Inf(1)), 3.1415927},
		EpochLoss:    []float64{math.Pi, 0.25, math.NaN()},
	}
}

// TestResultRoundTripBitExact: decode(encode(x)) == x by bit pattern,
// including NaN, infinities and negative zero.
func TestResultRoundTripBitExact(t *testing.T) {
	want := sampleResult()
	var buf bytes.Buffer
	if err := EncodeResult(&buf, "cell|key with spaces", want); err != nil {
		t.Fatal(err)
	}
	cell, got, err := DecodeResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if cell != "cell|key with spaces" {
		t.Fatalf("cell = %q", cell)
	}
	if !got.Equal(want) {
		t.Fatalf("round trip not bit-identical:\n got %+v\nwant %+v", got, want)
	}
	// Negative zero must survive as negative zero.
	if math.Signbit(float64(got.Weights[0])) || !math.Signbit(float64(got.Weights[1])) {
		t.Fatalf("zero signs lost: %v", got.Weights[:2])
	}
}

// TestResultEmptyArrays: a result with no predictions/weights/loss (e.g.
// a stub) still round-trips.
func TestResultEmptyArrays(t *testing.T) {
	want := &core.RunResult{Variant: core.Control, Replica: 0, TestAccuracy: 1}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, "c", want); err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodeResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestResultChecksumDetectsCorruption: a single flipped byte anywhere in
// the record fails decoding.
func TestResultChecksumDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeResult(&buf, "c", sampleResult()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, i := range []int{len(raw) / 2, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x40
		if _, _, err := DecodeResult(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
}

// TestResultHeaderStopsBeforeArrays: the header decoder returns the
// scalar prefix and never touches the arrays (a truncated tail after the
// header must not matter).
func TestResultHeaderStopsBeforeArrays(t *testing.T) {
	want := sampleResult()
	var buf bytes.Buffer
	if err := EncodeResult(&buf, "the-cell", want); err != nil {
		t.Fatal(err)
	}
	// Truncate right after the scalar prefix: magic + cell + variant +
	// replica + accuracy.
	head := buf.Bytes()[:8+4+len("the-cell")+4+4+8]
	cell, got, err := DecodeResultHeader(bytes.NewReader(head))
	if err != nil {
		t.Fatal(err)
	}
	if cell != "the-cell" || got.Replica != want.Replica || got.Variant != want.Variant ||
		got.TestAccuracy != want.TestAccuracy {
		t.Fatalf("header = %q %+v", cell, got)
	}
	if got.Weights != nil || got.Predictions != nil {
		t.Fatal("header decode loaded arrays")
	}
}

// TestResultRejectsBadMagic: a record under any other magic is not a
// replica record.
func TestResultRejectsBadMagic(t *testing.T) {
	_, _, err := DecodeResult(strings.NewReader("NNRCKPT1xxxxxxxxxxxxxxxx"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v", err)
	}
}

// forgedCountRecord is a 37-byte record whose epoch-loss count claims
// 2^28 entries (the maxDim limit) followed by a single payload byte.
func forgedCountRecord() []byte {
	var buf bytes.Buffer
	if err := EncodeResult(&buf, "", &core.RunResult{}); err != nil {
		panic(err)
	}
	rec := buf.Bytes()[:8+4+4+4+8+4] // magic, cell, variant, replica, acc, npred=0
	rec = binary.LittleEndian.AppendUint32(rec, maxDim)
	return append(rec, 0)
}

// allocated returns the bytes the process heap-allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeForgedCountAllocatesBounded: a record claiming more array
// entries than it carries fails without allocating for the claimed count.
// Fleet uploads reach the decoder from the network before any lease check.
func TestDecodeForgedCountAllocatesBounded(t *testing.T) {
	rec := forgedCountRecord()
	if len(rec) != 37 {
		t.Fatalf("forged record is %d bytes, want 37", len(rec))
	}
	var err error
	got := allocated(func() { _, _, err = DecodeResult(bytes.NewReader(rec)) })
	if err == nil {
		t.Fatal("forged count decoded without error")
	}
	if got >= 1<<20 {
		t.Fatalf("decoding a %d-byte record allocated %d bytes, want < 1 MiB", len(rec), got)
	}
}

// TestDecodeRejectsCellKeyEncodeRefuses: the decoder accepts exactly the
// cell keys EncodeResult writes, so every decoded record re-encodes.
func TestDecodeRejectsCellKeyEncodeRefuses(t *testing.T) {
	long := strings.Repeat("k", maxCellKey)
	if err := EncodeResult(io.Discard, long, sampleResult()); err == nil {
		t.Fatalf("encoded a %d-byte cell key", len(long))
	}
	rec := binary.LittleEndian.AppendUint32([]byte(resultMagic), uint32(len(long)))
	rec = append(append(rec, long...), make([]byte, 4+4+8)...) // variant, replica, acc
	if _, _, err := DecodeResultHeader(bytes.NewReader(rec)); err == nil {
		t.Fatalf("decoded a %d-byte cell key", len(long))
	}
}

// FuzzDecodeResult: decoding arbitrary bytes never panics, never
// allocates far beyond the input's size, and whatever decodes re-encodes
// to exactly the bytes it consumed. The header decoder never panics
// either, and agrees with a successful full decode. The seed corpus
// (testdata/fuzz) holds a valid record, a truncated one and
// forgedCountRecord.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		hcell, head, herr := DecodeResultHeader(bytes.NewReader(data))
		r := bytes.NewReader(data)
		var cell string
		var res *core.RunResult
		var err error
		if got := allocated(func() { cell, res, err = DecodeResult(r) }); got > 1<<20+16*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeResult(&out, cell, res); err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-encoded %d bytes differ from the %d consumed", out.Len(), len(consumed))
		}
		if herr != nil || hcell != cell || head.Variant != res.Variant || head.Replica != res.Replica ||
			math.Float64bits(head.TestAccuracy) != math.Float64bits(res.TestAccuracy) {
			t.Fatalf("header decode (%q, %+v, %v) disagrees with full decode", hcell, head, herr)
		}
	})
}
