package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/experiments"
	"repro/internal/lru"
	"repro/internal/recdir"
	"repro/internal/report"
)

// DefaultStoreCapacity bounds the result index when Open is given a
// non-positive capacity.
const DefaultStoreCapacity = 64

// ResultKey is the canonical, URL- and filename-safe identity of a run:
// {id}-{scale}-r{replicas}-s{seed} with the scale-default replica count
// resolved, so equivalent configurations collide. It is the store's
// content address: two configurations with the same key are guaranteed
// (by the determinism contract) to produce bit-identical results.
func ResultKey(id string, cfg experiments.Config) string {
	return fmt.Sprintf("%s-%s-r%d-s%d", id, cfg.Scale, cfg.EffectiveReplicas(), cfg.Seed)
}

// Store is a bounded, optionally disk-backed cache of completed results.
// The index is LRU-ordered via the shared intrusive doubly-linked list
// (internal/lru — the same machinery behind the replica ledger's GC):
// Get and Put are O(1) including eviction. With a directory configured,
// Put persists each result as {key}.json through the shared record
// protocol (internal/recdir: write-to-temp + atomic rename, quarantine
// of corrupt files), eviction unlinks the file, and Open rebuilds the
// index from the directory — so results survive process restarts and
// the directory never outgrows the configured capacity.
type Store struct {
	mu   sync.Mutex
	disk *recdir.Dir // memory-only when its path is ""
	cap  int
	// idx values are nil for entries known only from the directory scan;
	// Get loads them lazily.
	idx *lru.List[string, *report.Result]

	// hits/misses count Get outcomes since Open. Every submission probes
	// the store first, so these are the result-cache traffic counters the
	// stats and metrics endpoints report.
	hits   atomic.Int64
	misses atomic.Int64
}

// Open returns a Store holding at most capacity results (<= 0 picks
// DefaultStoreCapacity). dir "" keeps the store memory-only; otherwise
// the directory is created if needed and existing results are indexed in
// modification-time order (newest = most recently used), with anything
// beyond capacity evicted oldest-first. Leftover temp files from a
// crashed writer are quarantined; files that fail to parse are
// quarantined at read time rather than trusted (or deleted).
func Open(dir string, capacity int) (*Store, error) {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	disk, keys, err := recdir.Open(dir, "store", ".json")
	if err != nil {
		return nil, err
	}
	s := &Store{disk: disk, cap: capacity, idx: lru.New[string, *report.Result]()}
	for _, key := range keys { // oldest first, so the newest ends up MRU
		s.idx.PushFront(key, nil)
	}
	s.evictOverCap()
	return s, nil
}

// Dir reports the backing directory ("" when memory-only).
func (s *Store) Dir() string { return s.disk.Path() }

// Len reports the number of indexed results.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Len()
}

// Get returns the result stored under key, loading it from disk if the
// entry was indexed by Open but not yet read. A hit refreshes the entry's
// LRU position. A file that no longer parses is moved to quarantine
// (with a reason sidecar), dropped from the index and reported as a
// miss — so one corrupt file degrades that key to a recompute instead of
// wedging it, and the evidence survives for diagnosis. A file that
// cannot be opened or read is a miss that stays indexed.
func (s *Store) Get(key string) (*report.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.idx.Get(key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	if e.Value == nil {
		var res report.Result
		if err := s.disk.Load(key, func(r io.Reader) error { return decodeJSON(r, &res) }); err != nil {
			if !errors.Is(err, recdir.ErrUnreadable) {
				s.idx.Remove(e) // gone, or quarantined as corrupt
			}
			s.misses.Add(1)
			return nil, false
		}
		e.Value = &res
	}
	s.idx.MoveToFront(e)
	s.hits.Add(1)
	return e.Value, true
}

// Hits reports how many Get calls were served from the store since
// Open.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses reports how many Get calls found nothing since Open.
func (s *Store) Misses() int64 { return s.misses.Load() }

// Quarantined reports how many corrupt files this store has moved to
// quarantine since it was opened.
func (s *Store) Quarantined() int64 { return s.disk.Quarantined() }

// Writable probes the backing directory for write access — the serve
// layer's readiness check. A memory-only store is always writable.
func (s *Store) Writable() error { return s.disk.Writable() }

// Put stores res under key, evicting the least recently used entries
// (and their files) beyond capacity. With a directory configured the
// result is also written to {key}.json atomically; the in-memory index
// is updated even if the disk write fails, and the write error is
// returned so callers can surface degraded durability. The result is
// encoded before the lock is taken and published while it is held, so
// the file can never race a concurrent eviction's unlink and resurrect
// an evicted key on disk; the "store.write" fault point can fail or
// tear the write.
func (s *Store) Put(key string, res *report.Result) error {
	if res == nil {
		return fmt.Errorf("jobs: refusing to store nil result under %q", key)
	}
	if err := recdir.CheckKey(key); err != nil {
		return fmt.Errorf("jobs: invalid result key: %w", err)
	}
	var b []byte
	if s.disk.Path() != "" {
		var err error
		if b, err = json.MarshalIndent(res, "", "  "); err != nil {
			return fmt.Errorf("jobs: encoding result %q: %w", key, err)
		}
		b = append(b, '\n')
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.idx.Get(key); ok {
		e.Value = res
		s.idx.MoveToFront(e)
	} else {
		s.idx.PushFront(key, res)
		s.evictOverCap()
	}
	return s.disk.Publish(key, b)
}

// decodeJSON reads one whole JSON file into v — strictly, so trailing
// bytes are corruption too.
func decodeJSON(r io.Reader, v any) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// Keys lists the indexed keys from most to least recently used (tests
// and diagnostics).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.idx.Len())
	for e := s.idx.Front(); e != nil; e = e.Next() {
		out = append(out, e.Key)
	}
	return out
}

// evictOverCap drops the least recently used results beyond capacity,
// files included, so eviction bounds the directory, not just memory.
// Callers hold s.mu.
func (s *Store) evictOverCap() {
	for s.idx.Len() > s.cap {
		e := s.idx.Back()
		s.idx.Remove(e)
		s.disk.Remove(e.Key)
	}
}
