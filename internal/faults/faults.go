// Package faults provides named, programmatically armed fault-injection
// points for crash-safety and degradation testing. Production code marks
// its failure-prone sites with a call to Fire (I/O, execution) or
// FireWrite (persistence paths that can tear), each under a stable name
// like "ledger.write"; tests arm those names with an Injection — an
// error to return, a delay, a panic, or a torn write that truncates the
// payload at byte N — and the site misbehaves exactly as armed.
//
// The package is the test backbone for the serving stack's failure
// model: torn-write recovery, quarantine routing, panic and watchdog
// behavior in the job engine, fleet worker backoff, and readiness
// degradation are all exercised by arming these points rather than by
// mocking whole subsystems.
//
// Disarmed cost: Fire and FireWrite first read one atomic counter and
// return immediately when nothing is armed anywhere, so instrumented
// production paths pay a single atomic load — no map lookup, no lock.
//
// All functions are safe for concurrent use. Arming is process-global
// (the registry is package state), so tests that arm points must not run
// in parallel with tests observing the same names; the repository's
// convention is to arm via Arm's returned disarm func in a defer or
// t.Cleanup.
package faults

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is wrapped by every error an armed point returns (unless
// the injection supplies its own error), so callers and tests can
// recognize injected failures with errors.Is.
var ErrInjected = errors.New("faults: injected failure")

// Injection describes what an armed point does when it fires.
type Injection struct {
	// Err is returned from the point (nil with Truncate set means the
	// torn write is silent — the caller observes success).
	Err error
	// Delay is slept before anything else, simulating a slow device.
	Delay time.Duration
	// Panic, when non-nil, is panicked with — simulating a crashing
	// runner. Err and Truncate are then never reached.
	Panic any
	// Truncate enables torn writes at FireWrite points: the payload is
	// cut to TruncateAt bytes, simulating a write the filesystem
	// acknowledged but never completed.
	Truncate bool
	// TruncateAt is the byte offset a torn write cuts at (only read when
	// Truncate is set).
	TruncateAt int
	// After skips the first After passes through the point before the
	// fault starts firing — "fail the third write", not just the first.
	After int
	// Count disarms the point after it has fired Count times (0 = fire
	// until explicitly disarmed).
	Count int
}

type point struct {
	inj    Injection
	passes int
	fired  int
}

var (
	mu     sync.Mutex
	points = map[string]*point{}
	// spent keeps the final fired count of points their Count disarmed,
	// so Fired still reports it.
	spent = map[string]int{}
	// armed counts registered points; the zero check is the fast path
	// every Fire call takes in production.
	armed atomic.Int32
)

// Arm registers an injection under name and returns its disarm func.
// Re-arming a name replaces the previous injection and resets its
// counters.
func Arm(name string, inj Injection) (disarm func()) {
	mu.Lock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = &point{inj: inj}
	delete(spent, name)
	mu.Unlock()
	return func() { Disarm(name) }
}

// Disarm removes the injection registered under name (no-op when none).
func Disarm(name string) {
	mu.Lock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
	delete(spent, name)
	mu.Unlock()
}

// Reset disarms every point.
func Reset() {
	mu.Lock()
	armed.Add(-int32(len(points)))
	points = map[string]*point{}
	spent = map[string]int{}
	mu.Unlock()
}

// Fired reports how many times the point named has fired since it was
// armed, including a point its Count has since disarmed (0 when not
// armed).
func Fired(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.fired
	}
	return spent[name]
}

// Fire is the generic fault point: it returns nil instantly when nothing
// is armed, otherwise sleeps, panics or returns an error as the armed
// injection dictates.
func Fire(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	_, err := fire(name, nil)
	return err
}

// FireWrite is the persistence fault point: data passes through
// unchanged when the name is not armed; an armed torn write returns a
// truncated copy (the caller publishes it as if complete), and an armed
// error is returned for the caller to fail the write with.
func FireWrite(name string, data []byte) ([]byte, error) {
	if armed.Load() == 0 {
		return data, nil
	}
	return fire(name, data)
}

func fire(name string, data []byte) ([]byte, error) {
	mu.Lock()
	p, ok := points[name]
	if !ok {
		mu.Unlock()
		return data, nil
	}
	p.passes++
	if p.passes <= p.inj.After {
		mu.Unlock()
		return data, nil
	}
	inj := p.inj
	p.fired++
	if inj.Count > 0 && p.fired >= inj.Count {
		delete(points, name)
		spent[name] = p.fired
		armed.Add(-1)
	}
	mu.Unlock()

	if inj.Delay > 0 {
		time.Sleep(inj.Delay)
	}
	if inj.Panic != nil {
		panic(fmt.Sprintf("faults: injected panic at %s: %v", name, inj.Panic))
	}
	if inj.Truncate && data != nil {
		n := inj.TruncateAt
		if n < 0 {
			n = 0
		}
		if n > len(data) {
			n = len(data)
		}
		data = data[:n:n]
	}
	err := inj.Err
	if err == nil && !inj.Truncate && inj.Delay == 0 {
		// An armed point with nothing else configured still fails — the
		// common "make this write error" case needs no Err boilerplate.
		err = fmt.Errorf("%w at %s", ErrInjected, name)
	}
	return data, err
}
