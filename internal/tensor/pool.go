package tensor

import (
	"math/bits"
	"sync"
)

// Scratch pool: size-bucketed float32 buffers shared by every training step
// in the process. The GEMM pack panels, the conv backward column matrices,
// the batch-norm channel-major temporaries and the data loader's batch
// assembly buffers all live exactly as long as one kernel, one layer call
// or one batch; routing them through a shared pool means a population of
// replicas recycles a handful of buffers instead of each layer holding (or
// worse, reallocating) its own copy of the largest tensors in the network.
//
// Buffers are bucketed by ceil(log2(size)) so a Get never returns less
// than asked for and never wastes more than 2× the request. Contents are
// unspecified; callers must fully overwrite (or explicitly zero) what they
// use. Returning a buffer to the wrong bucket is impossible — PutScratch
// re-derives the bucket from the buffer's capacity.
//
// Each bucket is a mutex-guarded stack rather than a sync.Pool: Put into a
// sync.Pool boxes the slice header into an interface, which costs one heap
// allocation per round-trip and would defeat the zero-alloc steady-state
// gate (see DESIGN.md §15). The stacks are capped at bucketCap buffers per
// bucket; overflow is simply dropped for the GC to reclaim, which bounds
// worst-case retention at sum(bucketCap · 2^i) over the buckets actually
// touched by the process.

// Scratch is one such pool; its buckets cover sizes up to 2^31 floats,
// index i holding buffers with capacity exactly 2^i. The process shares
// one, behind GetScratch and PutScratch, and a nil *Scratch means that
// one. A kernel that runs beside others on a pool helper (the conv
// backward-weights GEMM) draws from a private Scratch instead: which of
// its buffers overlap the shared pool's in time depends on scheduling, so
// sharing would let an unlucky interleaving miss the pool in a warm step.
type Scratch struct {
	buckets [32]scratchBucket
}

// shared is the process-wide pool.
var shared Scratch

// bucketCap bounds how many idle buffers one bucket retains. Steady-state
// training needs only a few buffers per size class (pack panels, loader
// double-buffers, per-layer temporaries), but a population of replicas
// training concurrently multiplies that, so the cap is sized generously.
const bucketCap = 64

type scratchBucket struct {
	mu   sync.Mutex
	free [][]float32
}

// bucketFor returns the bucket index whose buffers hold at least n floats.
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// GetScratch returns a float32 buffer of length n from the shared pool,
// allocating a fresh power-of-two-capacity buffer on a pool miss. Contents
// are unspecified.
func GetScratch(n int) []float32 { return shared.Get(n) }

// PutScratch returns a buffer obtained from GetScratch to the pool. Buffers
// whose capacity is not an exact power of two (i.e. not pool-born) are
// dropped rather than filed in a bucket they would under-serve; so are
// buffers arriving at a bucket already holding bucketCap idle entries.
func PutScratch(s []float32) { shared.Put(s) }

// Get is GetScratch from this pool.
func (sc *Scratch) Get(n int) []float32 {
	if sc == nil {
		sc = &shared
	}
	if n <= 0 {
		return nil
	}
	idx := bucketFor(n)
	b := &sc.buckets[idx]
	b.mu.Lock()
	if last := len(b.free) - 1; last >= 0 {
		s := b.free[last]
		b.free[last] = nil
		b.free = b.free[:last]
		b.mu.Unlock()
		return s[:n]
	}
	b.mu.Unlock()
	return make([]float32, n, 1<<idx)
}

// Put is PutScratch into this pool.
func (sc *Scratch) Put(s []float32) {
	if sc == nil {
		sc = &shared
	}
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	b := &sc.buckets[bucketFor(c)]
	b.mu.Lock()
	if len(b.free) < bucketCap {
		b.free = append(b.free, s[:c])
	}
	b.mu.Unlock()
}
