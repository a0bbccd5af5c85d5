package sched

import (
	"errors"
	"testing"
)

// countTask counts its runs and panics with boom when it is set.
type countTask struct {
	runs int
	boom error
}

func (c *countTask) Run() {
	c.runs++
	if c.boom != nil {
		panic(c.boom)
	}
}

// TestHandoffFollowsBudget: with a budget of 1 the task runs inline,
// before Go returns; with a budget of 2 it runs on a helper, and a second
// handoff while the first is out finds no token and runs inline.
func TestHandoffFollowsBudget(t *testing.T) {
	defer SetWorkers(0)

	SetWorkers(1)
	var h Handoff
	task := &countTask{}
	before := Handoffs()
	if h.Go(task) {
		t.Fatal("budget 1: task went to a helper")
	}
	if task.runs != 1 {
		t.Fatalf("budget 1: task ran %d times before Go returned, want 1", task.runs)
	}
	h.Join() // nothing out: no-op
	if Handoffs() != before {
		t.Fatal("budget 1: handoff counter moved")
	}

	SetWorkers(2)
	for i := 0; i < 3; i++ { // reuse the parked helper
		if !h.Go(task) {
			t.Fatal("budget 2: task ran inline with a token free")
		}
		var other Handoff
		second := &countTask{}
		if other.Go(second) || second.runs != 1 {
			t.Fatal("budget 2: second handoff found a token while the first held it")
		}
		h.Join()
		h.Join() // idempotent
	}
	if task.runs != 4 {
		t.Fatalf("task ran %d times, want 4", task.runs)
	}
	if got := Handoffs() - before; got != 3 {
		t.Fatalf("Handoffs advanced by %d, want 3", got)
	}
}

// TestHandoffPanicReachesJoin: a panic on the helper re-panics as a
// *PanicError on the goroutine that joins, and the token comes back.
func TestHandoffPanicReachesJoin(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	boom := errors.New("boom")
	var h Handoff
	if !h.Go(&countTask{boom: boom}) {
		t.Fatal("task ran inline with a token free")
	}
	func() {
		defer func() {
			pe, ok := recover().(*PanicError)
			if !ok || pe.Value != boom {
				t.Fatalf("Join re-panicked %v, want a *PanicError wrapping boom", pe)
			}
		}()
		h.Join()
		t.Fatal("Join returned after the task panicked")
	}()
	task := &countTask{}
	if !h.Go(task) {
		t.Fatal("token not returned after the helper panicked")
	}
	h.Join()
	if task.runs != 1 {
		t.Fatal("task after a panic did not run")
	}
}

// TestHandoffGoBeforeJoinPanics: a second Go before Join is a caller bug.
func TestHandoffGoBeforeJoinPanics(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	var h Handoff
	h.Go(&countTask{})
	defer h.Join()
	defer func() {
		if recover() == nil {
			t.Fatal("Go before Join did not panic")
		}
	}()
	h.Go(&countTask{})
}
