package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Task is one unit of work a Handoff may run on a helper goroutine.
// Passing a pointer type as a Task stores it without allocating.
type Task interface{ Run() }

// Handoff runs one Task at a time beside its owner: on a helper goroutine
// when the worker budget has a free token, and on the calling goroutine
// otherwise. It lets a caller overlap two independent pieces of one
// computation (a layer's weight-gradient GEMM with its data-gradient
// GEMM) without a knob of its own: the budget that bounds replica and cell
// parallelism decides. With a budget of 1, or while replicas hold every
// token, the task runs inline.
//
// A warm handoff allocates nothing. Helpers are shared by every Handoff
// in the process; one is started only when every live helper is busy,
// so there are never more than the largest number of tokens ever held
// at once. An idle helper, and a caller joining, poll for a short while
// before they park (see spinFor). A Handoff is owned by one goroutine: Go
// and Join must not be called concurrently, and every Go is paired with a
// Join before the next Go. The zero value is ready to use.
type Handoff struct {
	done   chan *PanicError // buffered 1; made on the first handoff
	budget chan struct{}    // the token's channel, while a task is out
	task   Task
	active bool
}

var (
	// helperWork hands a Handoff to an idle helper goroutine. Its one
	// slot lets Go leave the handoff for a spinning helper without
	// waiting for it.
	helperWork = make(chan *Handoff, 1)

	helperMu    sync.Mutex
	helpersLive int // helper goroutines started (they never exit)
	helpersBusy int // handoffs started and not yet joined

	handoffs atomic.Uint64
)

// Handoffs returns how many tasks Handoff.Go has run on a helper
// goroutine since the process started.
func Handoffs() uint64 { return handoffs.Load() }

// Go starts t: on a helper goroutine if the worker budget has a token
// free right now, and to completion on the calling goroutine otherwise,
// in which case a panic in t propagates as usual. It reports whether t
// went to a helper; either way the caller must Join before using t's
// results.
func (h *Handoff) Go(t Task) bool {
	if h.active {
		panic("sched: Handoff.Go before Join")
	}
	budget := acquireBudget()
	select {
	case <-budget:
	default:
		t.Run()
		return false
	}
	if h.done == nil {
		h.done = make(chan *PanicError, 1)
	}
	h.budget, h.task, h.active = budget, t, true
	handoffs.Add(1)
	// Every busy handoff occupies at most one helper, so when the live
	// helpers outnumber the other busy handoffs one of them is idle or
	// about to be (it signals done before it waits for work), and takes
	// the handoff at once.
	helperMu.Lock()
	helpersBusy++
	spawn := helpersBusy > helpersLive
	if spawn {
		helpersLive++
	}
	helperMu.Unlock()
	if spawn {
		go helper(h)
	} else {
		helperWork <- h
	}
	return true
}

// Join waits for the task of the last Go and returns its token to the
// budget. If the task panicked on the helper, Join re-panics a
// *PanicError on the calling goroutine. Join is a no-op when nothing is
// out, so a deferred Join may follow an explicit one.
func (h *Handoff) Join() {
	if !h.active {
		return
	}
	p := spinRecv(h.done)
	helperMu.Lock()
	helpersBusy--
	helperMu.Unlock()
	h.budget <- struct{}{}
	h.budget, h.task, h.active = nil, nil, false
	if p != nil {
		panic(p)
	}
}

// helper runs handed-off tasks for as long as the process lives, waiting
// on helperWork between them.
func helper(h *Handoff) {
	for {
		h.done <- runTask(h.task)
		h = spinRecv(helperWork)
	}
}

// spinFor bounds how long spinRecv polls before it parks. A parked
// goroutine's thread sleeps, and waking it took about 100 µs on a 2-vCPU
// VM, against a few hundred µs of work per handoff in a ResNet-18 conv
// backward; the next conv's handoff, and the join, mostly come within it.
const spinFor = 500 * time.Microsecond

// spinRecv receives from c, polling for up to spinFor before it blocks.
// It yields between polls, so with one P the goroutine it waits for
// still runs.
func spinRecv[T any](c chan T) T {
	for start := time.Now(); time.Since(start) < spinFor; {
		select {
		case v := <-c:
			return v
		default:
			runtime.Gosched()
		}
	}
	return <-c
}

// runTask runs t, capturing a panic instead of letting it crash the
// process from the helper goroutine.
func runTask(t Task) (p *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			p = capturePanic(0, r)
		}
	}()
	t.Run()
	return nil
}

// capturePanic wraps a recovered panic value with the panicking
// goroutine's stack.
func capturePanic(i int, r any) *PanicError {
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return &PanicError{Index: i, Value: r, Stack: string(buf)}
}
