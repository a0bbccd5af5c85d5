package faults

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisarmedIsNoOp(t *testing.T) {
	if err := Fire("nowhere"); err != nil {
		t.Fatalf("disarmed Fire = %v", err)
	}
	data, err := FireWrite("nowhere", []byte("abc"))
	if err != nil || string(data) != "abc" {
		t.Fatalf("disarmed FireWrite = %q, %v", data, err)
	}
}

func TestArmedErrorAndDisarm(t *testing.T) {
	boom := errors.New("boom")
	disarm := Arm("p", Injection{Err: boom})
	if err := Fire("p"); !errors.Is(err, boom) {
		t.Fatalf("Fire = %v, want boom", err)
	}
	if got := Fired("p"); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
	disarm()
	if err := Fire("p"); err != nil {
		t.Fatalf("post-disarm Fire = %v", err)
	}
}

func TestDefaultErrorWrapsErrInjected(t *testing.T) {
	defer Arm("p", Injection{})()
	if err := Fire("p"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Fire = %v, want ErrInjected", err)
	}
}

func TestTornWriteTruncates(t *testing.T) {
	defer Arm("w", Injection{Truncate: true, TruncateAt: 2})()
	data, err := FireWrite("w", []byte("abcdef"))
	if err != nil {
		t.Fatalf("silent torn write returned %v", err)
	}
	if string(data) != "ab" {
		t.Fatalf("truncated to %q, want \"ab\"", data)
	}
	// Out-of-range offsets clamp instead of panicking.
	Arm("w", Injection{Truncate: true, TruncateAt: 100})
	if data, _ = FireWrite("w", []byte("xy")); string(data) != "xy" {
		t.Fatalf("over-length truncate = %q", data)
	}
}

func TestAfterAndCount(t *testing.T) {
	defer Arm("p", Injection{After: 2, Count: 1})()
	for i := 0; i < 2; i++ {
		if err := Fire("p"); err != nil {
			t.Fatalf("pass %d fired early: %v", i, err)
		}
	}
	if err := Fire("p"); err == nil {
		t.Fatal("third pass did not fire")
	}
	// Count: 1 auto-disarmed the point.
	if err := Fire("p"); err != nil {
		t.Fatalf("fired past Count: %v", err)
	}
}

// TestFiredCountsSpentPoint: a point its Count disarmed still reports
// how often it fired, until it is re-armed, disarmed or Reset.
func TestFiredCountsSpentPoint(t *testing.T) {
	defer Reset()
	Arm("p", Injection{Count: 3})
	for i := 0; i < 5; i++ {
		_ = Fire("p")
	}
	if got := Fired("p"); got != 3 {
		t.Fatalf("Fired = %d, want 3", got)
	}
	if armed.Load() != 0 {
		t.Fatalf("armed counter = %d after Count ran out", armed.Load())
	}
	Disarm("p")
	if got := Fired("p"); got != 0 {
		t.Fatalf("Fired after Disarm = %d, want 0", got)
	}
}

func TestPanicInjection(t *testing.T) {
	defer Arm("p", Injection{Panic: "kaboom"})()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	_ = Fire("p")
}

func TestDelayInjection(t *testing.T) {
	defer Arm("p", Injection{Delay: 20 * time.Millisecond})()
	start := time.Now()
	if err := Fire("p"); err != nil {
		t.Fatalf("delay-only injection returned %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("returned after %v, want >= 20ms", d)
	}
}

func TestConcurrentFire(t *testing.T) {
	defer Arm("p", Injection{})()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = Fire("p")
				_ = Fire("unarmed")
			}
		}()
	}
	wg.Wait()
	if got := Fired("p"); got != 800 {
		t.Fatalf("Fired = %d, want 800", got)
	}
}

func TestResetDisarmsEverything(t *testing.T) {
	Arm("a", Injection{})
	Arm("b", Injection{})
	Reset()
	if err := Fire("a"); err != nil {
		t.Fatalf("post-Reset Fire = %v", err)
	}
	if armed.Load() != 0 {
		t.Fatalf("armed counter = %d after Reset", armed.Load())
	}
}
