package main

import (
	"context"
	"sync"
	"time"
)

// openLoop issues operations on a fixed schedule — operation i is due at
// start + i/rate — whether or not earlier ones have finished, the way
// independent users arrive. Each operation's latency runs from when it
// was due, not from when a worker got to it, so a stall also charges the
// wait it imposes on the operations queued behind it.
type openLoop struct {
	rate    float64 // operations per second
	workers int     // goroutines issuing operations
}

// opFunc performs operation seq and reports when the reply that ended it
// had been read (zero for when it returns) and whether it succeeded. It
// must return promptly once ctx ends.
type opFunc func(ctx context.Context, seq int) (time.Time, bool)

// opSample is one finished operation.
type opSample struct {
	seq     int
	latency time.Duration // from due time to the reply that ended it
	ok      bool
}

// loopResult is what one run of the loop observed.
type loopResult struct {
	samples []opSample
	// lag is, per operation, how late the generator itself handed it to
	// the workers: the generator's own overload, kept apart from the
	// system's.
	lag []time.Duration
}

// run issues operations until ctx ends or stop is closed, then waits for
// every started operation to finish.
func (o openLoop) run(ctx context.Context, stop <-chan struct{}, op opFunc) loopResult {
	type due struct {
		seq int
		at  time.Time
	}
	// One second of operations: the generator never blocks on a pool
	// that stalls for less than that, so its lag measures its own
	// lateness; a longer stall backs up into lag, where it shows.
	queue := make(chan due, int(o.rate)+1)
	var (
		mu  sync.Mutex
		res loopResult
		wg  sync.WaitGroup
	)
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range queue {
				end, ok := op(ctx, d.seq)
				if end.IsZero() {
					end = time.Now()
				}
				lat := end.Sub(d.at)
				mu.Lock()
				res.samples = append(res.samples, opSample{seq: d.seq, latency: lat, ok: ok})
				mu.Unlock()
			}
		}()
	}
	period := time.Duration(float64(time.Second) / o.rate)
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	var lag []time.Duration
send:
	for seq := 0; ; seq++ {
		at := start.Add(time.Duration(seq) * period)
		if wait := time.Until(at); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break send
			case <-stop:
				break send
			}
		}
		select {
		case <-ctx.Done():
			break send
		case <-stop:
			break send
		default:
		}
		lag = append(lag, time.Since(at))
		select {
		case queue <- due{seq, at}:
		case <-ctx.Done():
			break send
		case <-stop:
			break send
		}
	}
	close(queue)
	wg.Wait()
	res.lag = lag
	return res
}
