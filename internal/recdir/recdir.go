// Package recdir is the one on-disk record protocol behind the replica
// ledger, the result store and the job journal. A record directory is
// flat, one file per record named key+ext, each published whole by
// write-to-temp + atomic rename, so readers — a future process too —
// only ever observe complete files:
//
//	store/
//	  fig1-test-r1-s7.json     ← a record
//	  .tmp-<key>-<rand>        ← an in-flight write, never read
//	  quarantine/
//	    bad-record.json        ← a corrupt file, moved verbatim
//	    bad-record.json.reason ← one line: why it was quarantined
//
// Corruption degrades, it never destroys: a record its owner cannot
// decode, and a temp file a crashed writer left behind, move into
// quarantine/ beside a reason sidecar. Scans skip subdirectories, so
// quarantined files are invisible to reindexing. A record that cannot
// be opened or read (as opposed to decoded) stays where it is: the
// failure may be transient. Every key and name joined onto a directory
// must pass CheckKey, so no caller-supplied name reaches outside it.
//
// The owner's name ("ledger", "store", "journal") prefixes its fault
// points (internal/faults): <name>.write before a publish, <name>.read
// before a read, <name>.probe before a writability probe.
//
// A Dir is safe for concurrent use as far as the filesystem is: each
// publish and quarantine is one rename. Owners that must order a
// publish against their own unlinks (eviction) hold their own lock
// around both.
package recdir

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/faults"
)

// QuarantineDir is the subdirectory quarantined files move into.
const QuarantineDir = "quarantine"

// TempPrefix marks in-progress writes. Leftovers from a crashed writer
// were never published; the next scan quarantines them.
const TempPrefix = ".tmp-"

// reasonExt marks the sidecar files carrying quarantine reasons.
const reasonExt = ".reason"

// ErrUnreadable marks a Load that could not open or read a record (as
// opposed to decode it): the file stays in place and a later Load may
// succeed, so owners keep their index entry for it.
var ErrUnreadable = errors.New("record unreadable")

// Dir is one record directory. A Dir with an empty path holds nothing
// on disk: scans find nothing, Publish, Remove and Quarantine do
// nothing, Load finds no record, and Writable only fires its fault
// point.
type Dir struct {
	path, name, ext                   string
	writeFault, readFault, probeFault string
	quarantined                       atomic.Int64
}

// Open returns the record directory at path for the owner called name
// (the prefix of its fault points and errors), whose records end in
// ext. It creates the directory if needed and returns the keys found
// there, oldest first (see Scan). path "" returns a memory-only Dir.
func Open(path, name, ext string) (*Dir, []string, error) {
	d := &Dir{path: path, name: name, ext: ext,
		writeFault: name + ".write", readFault: name + ".read", probeFault: name + ".probe"}
	if path == "" {
		return d, nil, nil
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, nil, fmt.Errorf("%s: opening %s: %w", name, path, err)
	}
	keys, err := d.Scan()
	if err != nil {
		return nil, nil, err
	}
	return d, keys, nil
}

// CheckKey reports whether s can name a file directly inside a record
// directory: non-empty, one path element, and not hidden — which also
// rules out ".", ".." and anything that could pass for a temp file.
func CheckKey(s string) error {
	if s == "" || s[0] == '.' || strings.ContainsAny(s, `/\`) {
		return fmt.Errorf("recdir: %q is not a plain file name", s)
	}
	return nil
}

// Path reports the directory ("" when memory-only).
func (d *Dir) Path() string { return d.path }

// File is the path of key's record.
func (d *Dir) File(key string) string { return filepath.Join(d.path, key+d.ext) }

// Scan lists the keys of the records in the directory, oldest first by
// modification time, so an owner that pushes them in order onto an LRU
// ends with the newest most recently used. It skips subdirectories and
// files without the record extension or with a name CheckKey refuses,
// and quarantines temp files left by an interrupted write.
func (d *Dir) Scan() ([]string, error) {
	if d.path == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("%s: scanning %s: %w", d.name, d.path, err)
	}
	type onDisk struct {
		key string
		mod int64
	}
	var found []onDisk
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, TempPrefix) {
			// A writer crashed between create and rename; the torn file was
			// never published, so it cannot be served — but it is evidence
			// of the crash, so it is preserved, not deleted. A failed move
			// leaves it for the next scan.
			_ = d.quarantine(name, "orphaned temp file from an interrupted write")
			continue
		}
		key, ok := strings.CutSuffix(name, d.ext)
		if !ok || CheckKey(key) != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, onDisk{key, info.ModTime().UnixNano()})
	}
	slices.SortStableFunc(found, func(a, b onDisk) int { return cmp.Compare(a.mod, b.mod) })
	keys := make([]string, len(found))
	for i, f := range found {
		keys[i] = f.key
	}
	return keys, nil
}

// Publish writes b as key's record: it fires <name>.write (which may
// fail or tear the write), then writes a temp file in the directory and
// renames it over the record, removing the temp file on failure.
func (d *Dir) Publish(key string, b []byte) error {
	if d.path == "" {
		return nil
	}
	if err := CheckKey(key); err != nil {
		return err
	}
	b, err := faults.FireWrite(d.writeFault, b)
	if err != nil {
		return fmt.Errorf("%s: publishing %s: %w", d.name, key, err)
	}
	tmp, err := os.CreateTemp(d.path, TempPrefix+key+"-*")
	if err != nil {
		return fmt.Errorf("%s: publishing %s: %w", d.name, key, err)
	}
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), d.File(key))
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("%s: publishing %s: %w", d.name, key, err)
	}
	return nil
}

// Open fires <name>.read and opens key's record for reading.
func (d *Dir) Open(key string) (*os.File, error) {
	if d.path == "" {
		return nil, fs.ErrNotExist
	}
	if err := faults.Fire(d.readFault); err != nil {
		return nil, err
	}
	if err := CheckKey(key); err != nil {
		return nil, err
	}
	return os.Open(d.File(key))
}

// Load opens key's record and hands it to decode. The error tells the
// owner what became of the file:
//   - nil: decode accepted the record;
//   - wrapping fs.ErrNotExist: there is no record under key;
//   - wrapping ErrUnreadable: the record could not be opened or read;
//     it stays in place;
//   - anything else is decode's error: the record is corrupt and has
//     been quarantined with that error as its reason.
func (d *Dir) Load(key string, decode func(io.Reader) error) error {
	f, err := d.Open(key)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return err
		}
		return fmt.Errorf("%s: reading %s: %w: %w", d.name, key, ErrUnreadable, err)
	}
	defer f.Close()
	r := &readErrs{r: f}
	if err := decode(r); err != nil {
		if r.err != nil {
			return fmt.Errorf("%s: reading %s: %w: %w", d.name, key, ErrUnreadable, r.err)
		}
		// A failed move leaves the file for the next Open to index and the
		// next Load to quarantine; the caller sees a miss either way.
		_ = d.quarantine(key+d.ext, fmt.Sprintf("%s record failed to decode: %v", d.name, err))
		return err
	}
	return nil
}

// readErrs remembers the first error its reader returned other than
// io.EOF, so Load can tell a failed read from a failed decode.
type readErrs struct {
	r   io.Reader
	err error
}

func (e *readErrs) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err != nil && err != io.EOF && e.err == nil {
		e.err = err
	}
	return n, err
}

// Remove unlinks key's record, if there is one.
func (d *Dir) Remove(key string) {
	if d.path == "" || CheckKey(key) != nil {
		return
	}
	_ = os.Remove(d.File(key))
}

// Quarantine moves name, a file directly inside the directory, into
// quarantine/ with reason in a sidecar, and counts it. A failed move
// leaves the file in place for the next attempt — never a silent
// delete.
func (d *Dir) Quarantine(name, reason string) error {
	if d.path == "" {
		return nil
	}
	if err := CheckKey(name); err != nil {
		return err
	}
	return d.quarantine(name, reason)
}

// quarantine is Quarantine for names read back from the directory
// itself, which need no check (temp files are hidden by design).
func (d *Dir) quarantine(name, reason string) error {
	err := toQuarantine(d.path, name, reason, func(dst string) error {
		return os.Rename(filepath.Join(d.path, name), dst)
	})
	if err != nil {
		return fmt.Errorf("%s: %w", d.name, err)
	}
	d.quarantined.Add(1)
	return nil
}

// toQuarantine has place put name's bytes at their quarantine path,
// then records reason in a sidecar. The sidecar is best-effort: the
// bytes are the load-bearing part. A name quarantined twice keeps the
// latest copy.
func toQuarantine(dir, name, reason string, place func(dst string) error) error {
	qdir := filepath.Join(dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("quarantine: %w", err)
	}
	dst := filepath.Join(qdir, name)
	if err := place(dst); err != nil {
		return fmt.Errorf("quarantine: %w", err)
	}
	_ = os.WriteFile(dst+reasonExt, []byte(reason+"\n"), 0o644)
	return nil
}

// Quarantined reports how many files this Dir has moved to quarantine.
func (d *Dir) Quarantined() int64 { return d.quarantined.Load() }

// Writable fires <name>.probe, then checks that a file can be created
// in the directory — an owner's readiness check.
func (d *Dir) Writable() error {
	if err := faults.Fire(d.probeFault); err != nil {
		return err
	}
	if d.path == "" {
		return nil
	}
	f, err := os.CreateTemp(d.path, TempPrefix+"probe-*")
	if err != nil {
		return fmt.Errorf("%s: %s not writable: %w", d.name, d.path, err)
	}
	f.Close()
	_ = os.Remove(f.Name())
	return nil
}

// Preserve writes b straight into dir's quarantine as name, with
// reason in a sidecar: the path for bytes refused before they ever
// became a record (a rejected fleet upload).
func Preserve(dir, name string, b []byte, reason string) error {
	if err := CheckKey(name); err != nil {
		return err
	}
	return toQuarantine(dir, name, reason, func(dst string) error {
		return os.WriteFile(dst, b, 0o644)
	})
}

// QuarantineCount reports how many files are quarantined under dir
// (0 on any scan error — counting is diagnostic, never load-bearing).
func QuarantineCount(dir string) int {
	entries, err := os.ReadDir(filepath.Join(dir, QuarantineDir))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && !strings.HasSuffix(e.Name(), reasonExt) {
			n++
		}
	}
	return n
}

// QuarantineReason returns the recorded reason for a quarantined name
// ("" when none was written).
func QuarantineReason(dir, name string) string {
	b, err := os.ReadFile(filepath.Join(dir, QuarantineDir, name+reasonExt))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}
