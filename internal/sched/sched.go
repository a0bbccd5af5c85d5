// Package sched provides the bounded worker pool behind every parallel
// loop in the repository: replica training in internal/core, experiment
// grid fan-out in internal/experiments, and any future sweep that is
// embarrassingly parallel.
//
// Design notes. Parallelism here is purely a wall-clock optimization: every
// unit of work derives its randomness from explicit seeds (see
// core.SeedsFor), so results must be bit-identical no matter how many
// workers run or how the scheduler interleaves them. The pool therefore
// only distributes *indices*; all ordering-sensitive state (result slices)
// is written at the index owned by each unit of work.
//
// The pool is deadlock-free under nesting (a grid runner whose cells call
// RunVariant, which parallelizes replicas): the calling goroutine always
// participates in the work and never blocks waiting for a token, so even
// with zero spare workers every ForEach makes progress. Helper goroutines
// are bounded globally by the worker budget, not per call site.
//
// The same budget backs Handoff, which runs one task beside its caller
// (a conv layer's weight-gradient GEMM) on a helper when a token is free
// and inline when none is, so a lone replica can use a spare core.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

var (
	mu     sync.Mutex
	tokens chan struct{} // global helper budget; nil until first use
	want   int           // 0 means "GOMAXPROCS at first use"
)

// Workers returns the current worker budget (the maximum number of helper
// goroutines running across all concurrent Map/ForEach calls, plus the
// calling goroutines themselves).
func Workers() int {
	mu.Lock()
	defer mu.Unlock()
	if want > 0 {
		return want
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the worker budget. n <= 0 resets to GOMAXPROCS.
// Calls in flight keep the budget they started with.
func SetWorkers(n int) {
	mu.Lock()
	defer mu.Unlock()
	if n <= 0 {
		n = 0
	}
	want = n
	tokens = nil // rebuilt lazily at the new size
}

// acquireBudget returns the token channel, building it at the current
// budget if needed. Helpers release to the same channel they drew from,
// so resizing mid-flight cannot leak or double-count tokens.
func acquireBudget() chan struct{} {
	mu.Lock()
	defer mu.Unlock()
	if tokens == nil {
		n := want
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		// The caller participates for free; helpers need tokens. n-1 helper
		// tokens yield n-way parallelism for a single top-level call.
		tokens = make(chan struct{}, max(n-1, 0))
		for i := 0; i < cap(tokens); i++ {
			tokens <- struct{}{}
		}
	}
	return tokens
}

// PanicError wraps a panic captured from a pooled worker or a handoff
// helper so the caller goroutine can re-panic with context instead of
// crashing the process from an anonymous goroutine.
type PanicError struct {
	Index int    // work item that panicked
	Value any    // original panic value
	Stack string // stack of the panicking goroutine
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("sched: work item %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// ForEach runs fn(i) for every i in [0, n), distributing indices over the
// worker budget. It returns the first error observed (remaining indices
// are skipped once an error is recorded, but in-flight items run to
// completion). When ctx is cancelled no new indices are claimed and
// ForEach returns ctx.Err() (unless fn already failed with a different
// error first); long-running fn bodies should check ctx themselves to
// abort mid-item. If fn panics, ForEach waits for all workers and then
// re-panics a *PanicError on the calling goroutine.
func ForEach(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var (
		state struct {
			sync.Mutex
			next  int
			err   error
			panic *PanicError
		}
		wg sync.WaitGroup
	)
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				p := capturePanic(i, r)
				state.Lock()
				if state.panic == nil {
					state.panic = p
				}
				state.Unlock()
			}
		}()
		if err := fn(i); err != nil {
			state.Lock()
			if state.err == nil {
				state.err = err
			}
			state.Unlock()
		}
	}
	// next claims the next index, or returns false when work is exhausted,
	// the context is cancelled, or an error/panic already ended the loop.
	// Exhaustion is checked before cancellation on purpose: a cancel that
	// lands after every index has been claimed must not discard work that
	// is completing anyway (in-flight fn bodies observe ctx themselves if
	// they care).
	next := func() (int, bool) {
		state.Lock()
		defer state.Unlock()
		if state.next >= n || state.err != nil || state.panic != nil {
			return 0, false
		}
		if err := ctx.Err(); err != nil {
			state.err = err
			return 0, false
		}
		i := state.next
		state.next++
		return i, true
	}

	budget := acquireBudget()
	// Spawn at most n-1 helpers, and only as many as the global budget has
	// tokens for right now; the caller drains whatever is left.
	for h := 1; h < n; h++ {
		select {
		case tok := <-budget:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { budget <- tok }()
				for {
					i, ok := next()
					if !ok {
						return
					}
					runOne(i)
				}
			}()
		default:
			h = n // budget exhausted; stop trying
		}
	}
	for {
		i, ok := next()
		if !ok {
			break
		}
		runOne(i)
	}
	wg.Wait()
	if state.panic != nil {
		panic(state.panic)
	}
	return state.err
}

// Map runs fn for every index in [0, n) under the worker budget and
// returns the results in index order. Error, cancellation and panic
// semantics match ForEach.
func Map[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
