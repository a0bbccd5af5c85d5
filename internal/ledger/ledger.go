// Package ledger is the replica-granular training ledger: a bounded,
// optionally disk-backed store of trained replica outcomes
// (core.RunResult), keyed by (cell key, replica index). The cell key is a
// population's full resolved identity *without* its replica count, so a
// 5-replica and a 30-replica population over the same cell address the
// same records — populations of different sizes share prefixes, and a
// request only ever pays for the replica indices the ledger has never
// seen.
//
// With a directory configured, every Put also persists the replica as a
// checkpoint record (write-to-temp + atomic rename, content checksum) and
// Open rebuilds the index from the directory in modification-time order —
// a restarted process serves every replica it has ever trained without
// retraining any of them. Eviction is LRU beyond the configured capacity
// and unlinks the on-disk record, so the directory never outgrows the
// bound either.
//
// Determinism contract: a replica's outcome is fully determined by its
// cell key and index, so a record served from disk is bit-identical to
// retraining it — the codec round-trips every float by bit pattern and
// the decoder verifies the content checksum before serving.
//
// Corruption degrades, it never destroys: a record that fails to decode
// (torn write, bit rot) or carries an unparseable name is moved to a
// quarantine/ subdirectory with a reason sidecar (internal/recdir, which
// owns the on-disk protocol), counted via Quarantined, and treated as a
// cache miss — the replica retrains bit-identically and the evidence
// survives for diagnosis. A record that merely cannot be opened or read
// is a miss that leaves the file and its index entry in place.
//
// A Ledger is safe for concurrent use.
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/recdir"
)

// DefaultCapacity bounds retained replicas when Open is given a
// non-positive capacity: enough for every registered paper artifact at
// the paper's 10-replica populations with room for custom grids.
const DefaultCapacity = 1024

// fileExt is the on-disk record suffix.
const fileExt = ".nnr"

// entry is one indexed replica. cell is "" and res nil for records known
// only from the directory scan; Get loads and verifies them lazily.
type entry struct {
	cell    string
	replica int
	res     *core.RunResult
}

// Ledger is the replica store. See the package comment for semantics.
type Ledger struct {
	mu   sync.Mutex
	disk *recdir.Dir // memory-only when its path is ""
	cap  int
	idx  *lru.List[string, *entry]

	// trains counts replicas recorded via Put since open; restart tests
	// use deltas to prove a warm ledger trains only what it has never seen.
	trains atomic.Int64

	// hits and misses count Get outcomes since open (a record that fails
	// to load or collides counts as a miss — the caller retrains either
	// way). The stats endpoint exposes them so operators can see how much
	// of a workload the ledger is absorbing.
	hits, misses atomic.Int64
}

// Memory returns a memory-only ledger (capacity <= 0 picks
// DefaultCapacity). It cannot fail: there is no directory to scan.
func Memory(capacity int) *Ledger {
	l, _ := Open("", capacity)
	return l
}

// Open returns a ledger over dir holding at most capacity replicas
// (<= 0 picks DefaultCapacity; list/GC tooling passes a huge capacity to
// index everything). dir "" keeps the ledger memory-only; otherwise the
// directory is created if needed and existing records are indexed in
// modification-time order (newest = most recently used), with anything
// beyond capacity evicted oldest-first.
func Open(dir string, capacity int) (*Ledger, error) {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	disk, keys, err := recdir.Open(dir, "ledger", fileExt)
	if err != nil {
		return nil, err
	}
	l := &Ledger{disk: disk, cap: capacity, idx: lru.New[string, *entry]()}
	for _, key := range keys { // oldest first, so the newest ends up MRU
		rep, ok := replicaFromStem(key)
		if !ok {
			// A .nnr file whose name does not parse can never be addressed;
			// move it aside so the corruption is visible and counted (a
			// failed move leaves it for the next Open).
			_ = disk.Quarantine(key+fileExt, "unparseable record name")
			continue
		}
		l.idx.PushFront(key, &entry{replica: rep})
	}
	l.evictOverCap()
	return l, nil
}

// stem is the index key and on-disk filename stem of one record:
// a 16-hex digest of the cell key plus the replica index. The digest
// keeps arbitrary cell keys (spaces, pipes) filename-safe; the full cell
// string is stored inside the record and verified on load, so a digest
// collision degrades to a cache miss, never to serving the wrong replica.
func stem(cell string, replica int) string {
	sum := sha256.Sum256([]byte(cell))
	return hex.EncodeToString(sum[:8]) + "-r" + strconv.Itoa(replica)
}

// replicaFromStem parses the replica index back out of a filename stem.
func replicaFromStem(s string) (int, bool) {
	i := strings.LastIndex(s, "-r")
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(s[i+2:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Dir reports the backing directory ("" when memory-only).
func (l *Ledger) Dir() string { return l.disk.Path() }

// Len reports the number of indexed replicas.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.idx.Len()
}

// Trains reports how many replicas have been recorded via Put since the
// ledger was opened.
func (l *Ledger) Trains() int64 { return l.trains.Load() }

// Quarantined reports how many corrupt records this ledger has moved to
// quarantine since it was opened (reindex and read-time failures both
// count). The files themselves sit under Dir()/quarantine with a reason
// sidecar each.
func (l *Ledger) Quarantined() int64 { return l.disk.Quarantined() }

// Writable probes the backing directory for write access — the serve
// layer's readiness check. A memory-only ledger is always writable.
func (l *Ledger) Writable() error { return l.disk.Writable() }

// Get returns the replica stored under (cell, index), loading and
// checksum-verifying it from disk if it was indexed by Open but not yet
// read. A hit refreshes the record's LRU position. A record that fails
// to decode is moved to quarantine (with a reason sidecar) rather than
// deleted and dropped from the index, so one bad record degrades to a
// retrain, never to lost evidence; one that cannot be opened or read
// stays indexed for the next Get. Either way, and for a record whose
// stored cell key does not match (digest collision), Get reports a
// miss.
func (l *Ledger) Get(cell string, replica int) (*core.RunResult, bool) {
	key := stem(cell, replica)
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.idx.Get(key)
	if !ok {
		l.misses.Add(1)
		return nil, false
	}
	if e.Value.res == nil {
		var gotCell string
		var res *core.RunResult
		err := l.disk.Load(key, func(r io.Reader) (err error) {
			gotCell, res, err = checkpoint.DecodeResult(r)
			return err
		})
		if err != nil {
			if !errors.Is(err, recdir.ErrUnreadable) {
				l.idx.Remove(e) // gone, or quarantined as corrupt
			}
			l.misses.Add(1)
			return nil, false
		}
		e.Value.cell, e.Value.replica, e.Value.res = gotCell, res.Replica, res
	}
	if e.Value.cell != cell || e.Value.replica != replica {
		l.misses.Add(1)
		return nil, false // digest collision: the record belongs to another cell
	}
	l.idx.MoveToFront(e)
	l.hits.Add(1)
	return e.Value.res, true
}

// Hits reports how many Get calls were served from the ledger since it
// was opened.
func (l *Ledger) Hits() int64 { return l.hits.Load() }

// Misses reports how many Get calls found nothing servable (absent,
// unloadable, or colliding records all count) since the ledger was
// opened.
func (l *Ledger) Misses() int64 { return l.misses.Load() }

// Warm counts how many of a population's first n replica indices are
// already indexed — the "cache credit" a request for n replicas over
// this cell would get.
func (l *Ledger) Warm(cell string, n int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	warm := 0
	for i := 0; i < n; i++ {
		if _, ok := l.idx.Get(stem(cell, i)); ok {
			warm++
		}
	}
	return warm
}

// Put records a trained replica under (cell, index), evicting the least
// recently used records (and their files) beyond capacity. With a
// directory configured the record is also persisted atomically; the
// in-memory index is updated even if the disk write fails, and the write
// error is returned so callers can surface degraded durability.
func (l *Ledger) Put(cell string, replica int, res *core.RunResult) error {
	if res == nil {
		return fmt.Errorf("ledger: refusing to store nil replica %d of %q", replica, cell)
	}
	key := stem(cell, replica)
	// Encode before taking the lock: serializing a weight vector is the
	// CPU-heavy part of a Put, and concurrent replica resolutions must not
	// serialize behind it.
	var buf bytes.Buffer
	var encErr error
	if l.disk.Path() != "" {
		encErr = checkpoint.EncodeResult(&buf, cell, res)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.idx.Get(key); ok {
		e.Value.cell, e.Value.res = cell, res
		l.idx.MoveToFront(e)
	} else {
		l.idx.PushFront(key, &entry{cell: cell, replica: replica, res: res})
		l.evictOverCap()
	}
	l.trains.Add(1)
	if encErr != nil {
		return fmt.Errorf("ledger: persisting %s: %w", key, encErr)
	}
	// Publish while the lock is held so a concurrent eviction's unlink can
	// never race the rename and resurrect an evicted record on disk. The
	// "ledger.write" fault point can fail or tear the write.
	return l.disk.Publish(key, buf.Bytes())
}

// evict drops the least recently used record, file included. Callers
// hold l.mu.
func (l *Ledger) evict() {
	e := l.idx.Back()
	l.idx.Remove(e)
	l.disk.Remove(e.Key)
}

func (l *Ledger) evictOverCap() {
	for l.idx.Len() > l.cap {
		l.evict()
	}
}

// GC evicts the least recently used records beyond keep (files included)
// and returns how many were removed. `nnrand ledger gc` is a thin wrapper
// over this; the same machinery runs implicitly on every Put.
func (l *Ledger) GC(keep int) int {
	if keep < 0 {
		keep = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for l.idx.Len() > keep {
		l.evict()
		removed++
	}
	return removed
}

// Reset drops the in-memory index (files are untouched). Tests use it to
// simulate a cold process over a warm directory.
func (l *Ledger) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idx = lru.New[string, *entry]()
}

// Info describes one indexed replica for listings.
type Info struct {
	// Cell is the population identity the replica belongs to.
	Cell string
	// Replica is the index within the population.
	Replica int
	// TestAccuracy is the replica's recorded test accuracy.
	TestAccuracy float64
	// Bytes is the on-disk record size (0 when memory-only or unreadable).
	Bytes int64
	// Loaded reports whether the full record is resident in memory.
	Loaded bool
}

// Entries lists every indexed replica from most to least recently used.
// Records not yet resident have only their headers read from disk (cheap:
// no weight vectors); records whose files have vanished or gone
// unreadable are listed with what the index still knows.
func (l *Ledger) Entries() []Info {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Info, 0, l.idx.Len())
	for e := l.idx.Front(); e != nil; e = e.Next() {
		info := Info{Cell: e.Value.cell, Replica: e.Value.replica, Loaded: e.Value.res != nil}
		if e.Value.res != nil {
			info.TestAccuracy = e.Value.res.TestAccuracy
		}
		if f, err := l.disk.Open(e.Key); err == nil {
			if st, err := f.Stat(); err == nil {
				info.Bytes = st.Size()
			}
			if e.Value.res == nil {
				if cell, res, err := checkpoint.DecodeResultHeader(f); err == nil {
					info.Cell, info.Replica, info.TestAccuracy = cell, res.Replica, res.TestAccuracy
				}
			}
			f.Close()
		}
		out = append(out, info)
	}
	return out
}
