// Package checkpoint serializes a replica's full training outcome — cell
// key, variant, replica index, test accuracy, test-set predictions,
// per-epoch loss and trained weights — as the NNRREPL1 record the replica
// ledger stores and fleet workers upload. The paper's replicability
// standard — bitwise-identical outcomes given identical tooling and seeds —
// is only auditable if outcomes can be stored and compared exactly, so a
// record served from disk is indistinguishable, bit for bit, from one
// trained in process.
//
// Record format (little-endian):
//
//	magic   "NNRREPL1"                   8 bytes
//	cellLen uint32, cell bytes           the replica's cell key
//	variant uint32
//	replica uint32
//	acc     uint64 (float64 bits)        test accuracy
//	npred   uint32, preds  []uint32      argmax test predictions
//	nloss   uint32, loss   []uint64      per-epoch mean loss (float64 bits)
//	nweight uint32, weight []uint32      flattened weights (float32 bits)
//	crc32 (IEEE) of everything above
//
// Scalars and arrays round-trip through raw bit patterns (never text), so
// decode(encode(x)) == x exactly, including non-finite values. Every
// length field is bounded before use, and array buffers grow with the
// bytes actually read, so a corrupt or hostile record costs at most a
// bounded allocation before it fails.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
)

// maxDim guards against corrupt headers claiming absurd array lengths.
const maxDim = 1 << 28

// maxCellKey bounds the cell-key header field against corrupt files.
const maxCellKey = 1 << 16

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	if err != nil {
		return fmt.Errorf("checkpoint: write u32: %w", err)
	}
	return nil
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("checkpoint: read u32: %w", err)
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func writeString(w io.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	if err != nil {
		return fmt.Errorf("checkpoint: write string: %w", err)
	}
	return nil
}

func readString(r io.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n >= maxCellKey {
		return "", fmt.Errorf("checkpoint: string length %d exceeds %d", n, maxCellKey-1)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("checkpoint: read string: %w", err)
	}
	return string(buf), nil
}
