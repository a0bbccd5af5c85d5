package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/core"
)

const resultMagic = "NNRREPL1"

// EncodeResult writes one replica's full training outcome under its cell
// key. The cell key is the population identity *without* the replica
// count (see the experiments engine), which is what makes the record
// shareable across population sizes.
func EncodeResult(w io.Writer, cell string, res *core.RunResult) error {
	if res == nil {
		return fmt.Errorf("checkpoint: refusing to encode nil result")
	}
	if len(cell) >= maxCellKey {
		return fmt.Errorf("checkpoint: cell key of %d bytes exceeds %d", len(cell), maxCellKey)
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := mw.Write([]byte(resultMagic)); err != nil {
		return fmt.Errorf("checkpoint: write magic: %w", err)
	}
	if err := writeString(mw, cell); err != nil {
		return err
	}
	if err := writeU32(mw, uint32(res.Variant)); err != nil {
		return err
	}
	if err := writeU32(mw, uint32(res.Replica)); err != nil {
		return err
	}
	if err := writeU64(mw, math.Float64bits(res.TestAccuracy)); err != nil {
		return err
	}
	if err := writeU32(mw, uint32(len(res.Predictions))); err != nil {
		return err
	}
	buf := make([]byte, 8*len(res.EpochLoss)+4*max(len(res.Predictions), len(res.Weights)))
	for i, p := range res.Predictions {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(p))
	}
	if _, err := mw.Write(buf[:4*len(res.Predictions)]); err != nil {
		return fmt.Errorf("checkpoint: write predictions: %w", err)
	}
	if err := writeU32(mw, uint32(len(res.EpochLoss))); err != nil {
		return err
	}
	for i, v := range res.EpochLoss {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	if _, err := mw.Write(buf[:8*len(res.EpochLoss)]); err != nil {
		return fmt.Errorf("checkpoint: write epoch loss: %w", err)
	}
	if err := writeU32(mw, uint32(len(res.Weights))); err != nil {
		return err
	}
	for i, v := range res.Weights {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	if _, err := mw.Write(buf[:4*len(res.Weights)]); err != nil {
		return fmt.Errorf("checkpoint: write weights: %w", err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("checkpoint: write checksum: %w", err)
	}
	return nil
}

// DecodeResult reads a full replica record, verifying the content
// checksum. Loaded values are bit-exact.
func DecodeResult(r io.Reader) (string, *core.RunResult, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)
	cell, res, err := decodeResultBody(tr, false)
	if err != nil {
		return "", nil, err
	}
	want := crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return "", nil, fmt.Errorf("checkpoint: read checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return "", nil, fmt.Errorf("checkpoint: result checksum mismatch: file %08x, content %08x", got, want)
	}
	return cell, res, nil
}

// DecodeResultHeader reads only the scalar prefix of a replica record —
// cell key, variant, replica index, test accuracy — without loading (or
// checksumming) the arrays. Listings use it to describe a ledger without
// paying for every weight vector; anything that will *serve* the record
// must go through DecodeResult.
func DecodeResultHeader(r io.Reader) (string, *core.RunResult, error) {
	return decodeResultBody(r, true)
}

func decodeResultBody(r io.Reader, headerOnly bool) (string, *core.RunResult, error) {
	head := make([]byte, len(resultMagic))
	if _, err := io.ReadFull(r, head); err != nil {
		return "", nil, fmt.Errorf("checkpoint: read magic: %w", err)
	}
	if string(head) != resultMagic {
		return "", nil, fmt.Errorf("checkpoint: bad result magic %q", head)
	}
	cell, err := readString(r)
	if err != nil {
		return "", nil, err
	}
	variant, err := readU32(r)
	if err != nil {
		return "", nil, err
	}
	replica, err := readU32(r)
	if err != nil {
		return "", nil, err
	}
	accBits, err := readU64(r)
	if err != nil {
		return "", nil, err
	}
	res := &core.RunResult{
		Variant:      core.Variant(variant),
		Replica:      int(replica),
		TestAccuracy: math.Float64frombits(accBits),
	}
	if headerOnly {
		return cell, res, nil
	}
	if res.Predictions, err = readWords(r, "predictions", 4, func(b []byte) int {
		return int(binary.LittleEndian.Uint32(b))
	}); err != nil {
		return "", nil, err
	}
	if res.EpochLoss, err = readWords(r, "epoch loss", 8, func(b []byte) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}); err != nil {
		return "", nil, err
	}
	if res.Weights, err = readWords(r, "weights", 4, func(b []byte) float32 {
		return math.Float32frombits(binary.LittleEndian.Uint32(b))
	}); err != nil {
		return "", nil, err
	}
	return cell, res, nil
}

// readWords reads an array: a count, bounded by maxDim, then that many
// size-byte words, each decoded by word. It reads in chunks and grows the
// result only as words arrive, so a forged count on a short record fails
// at EOF after allocating at most a chunk, never the count.
func readWords[T any](r io.Reader, what string, size int, word func([]byte) T) ([]T, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if n > maxDim {
		return nil, fmt.Errorf("checkpoint: %s count %d implausibly large", what, n)
	}
	const chunk = 1 << 16 // bytes per read
	var out []T
	buf := make([]byte, min(int(n)*size, chunk))
	for left := int(n); left > 0; {
		b := buf[:min(left*size, len(buf))]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("checkpoint: read %s: %w", what, err)
		}
		out = slices.Grow(out, min(left, max(len(out), len(b)/size)))
		for i := 0; i < len(b); i += size {
			out = append(out, word(b[i:]))
		}
		left -= len(b) / size
	}
	return out, nil
}

func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	if _, err := w.Write(b[:]); err != nil {
		return fmt.Errorf("checkpoint: write u64: %w", err)
	}
	return nil
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("checkpoint: read u64: %w", err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}
