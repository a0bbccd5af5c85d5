// Package rng provides the deterministic random number substrate used by
// every stochastic component in the repository.
//
// The paper's methodology depends on being able to toggle algorithmic
// randomness (weight init, shuffling, augmentation, dropout) independently
// from implementation randomness (floating-point accumulation order on the
// simulated accelerator). To make that split airtight, all randomness flows
// through Stream values that are created explicitly from seeds: there is no
// package-level global state and no dependence on math/rand. A Stream can be
// split into independent named sub-streams so that, for example, the
// initializer of layer "conv2/W" draws from a stream that is stable no
// matter how many draws other layers made before it.
package rng

import (
	"math"
)

// splitmix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 (Steele, Lea, Flood 2014) is used both as a seed expander and
// to hash sub-stream labels into seed material.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hash64 hashes a byte string with FNV-1a then finalizes with SplitMix64 so
// that short labels ("conv1/W", "shuffle") produce well-mixed seeds.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return splitmix64(&h)
}

// Stream is a deterministic pseudo-random stream (PCG64-XSL-RR). It is NOT
// safe for concurrent use; split one sub-stream per goroutine instead.
type Stream struct {
	seed   uint64 // creation seed; Split derives children from this, not from state
	hi, lo uint64 // 128-bit LCG state
	incHi  uint64 // stream increment (must be odd in low word)
	incLo  uint64

	// Gaussian spare value (Box-Muller produces pairs).
	hasSpare bool
	spare    float64
}

// New returns a Stream seeded from seed. Two Streams built from the same
// seed produce identical outputs on every platform.
func New(seed uint64) *Stream {
	st := seed
	s := &Stream{seed: seed}
	s.lo = splitmix64(&st)
	s.hi = splitmix64(&st)
	s.incLo = splitmix64(&st) | 1 // increment must be odd
	s.incHi = splitmix64(&st)
	// Burn a few outputs so nearby seeds decorrelate immediately.
	for i := 0; i < 4; i++ {
		s.Uint64()
	}
	return s
}

// Split derives an independent sub-stream identified by label. Splitting is
// a pure function of (parent seed material, label): it does not consume or
// perturb the parent stream, so layer initialization order cannot leak into
// sibling streams.
func (s *Stream) Split(label string) *Stream {
	st := s.seed ^ hash64(label)
	return New(splitmix64(&st))
}

// SplitIndex derives an independent sub-stream identified by an integer,
// e.g. one stream per replica or per epoch.
func (s *Stream) SplitIndex(i int) *Stream {
	st := s.seed ^ rotl(0xabcd_ef01_2345_6789+uint64(i), 23)
	return New(splitmix64(&st))
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 pseudo-random bits (PCG64 XSL-RR output).
func (s *Stream) Uint64() uint64 {
	// 128-bit LCG step: state = state*mul + inc.
	const mulHi, mulLo = 2549297995355413924, 4865540595714422341
	oldHi, oldLo := s.hi, s.lo
	hi, lo := mul128(oldHi, oldLo, mulHi, mulLo)
	lo, carry := add64(lo, s.incLo)
	hi = hi + s.incHi + carry
	s.hi, s.lo = hi, lo
	// XSL-RR output of the *old* state.
	xored := oldHi ^ oldLo
	rot := uint(oldHi >> 58)
	return rotr(xored, rot)
}

func rotr(x uint64, k uint) uint64 { return x>>k | x<<((64-k)%64) }

func add64(a, b uint64) (sum, carry uint64) {
	sum = a + b
	if sum < a {
		carry = 1
	}
	return sum, carry
}

// mul128 multiplies two 128-bit integers (hi,lo pairs) modulo 2^128.
func mul128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	hi, lo = mul64(aLo, bLo)
	hi += aHi*bLo + aLo*bHi
	return hi, lo
}

// mul64 returns the 128-bit product of two uint64 values.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	tLo := t & mask
	tHi := t >> 32
	t = aLo*bHi + tLo
	lo |= (t & mask) << 32
	hi = aHi*bHi + tHi + t>>32
	return hi, lo
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method with rejection for exactness.
	bound := uint64(n)
	hi, lo := mul64(s.Uint64(), bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			hi, lo = mul64(s.Uint64(), bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float32 returns a uniform float32 in [0, 1).
func (s *Stream) Float32() float32 {
	return float32(s.Uint64()>>40) * (1.0 / (1 << 24))
}

// Uniform returns a uniform float64 in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a standard normal draw using Box-Muller (deterministic,
// platform-independent given math.Sqrt/Log/Cos conformance).
func (s *Stream) Norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	var u float64
	for u == 0 {
		u = s.Float64()
	}
	v := s.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	theta := 2 * math.Pi * v
	s.spare = r * math.Sin(theta)
	s.hasSpare = true
	return r * math.Cos(theta)
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool { return s.Float64() < p }

// Perm returns a pseudo-random permutation of [0, n) via Fisher-Yates.
func (s *Stream) Perm(n int) []int { return s.PermInto(make([]int, n), n) }

// PermInto fills dst[:n] with a pseudo-random permutation of [0, n),
// drawing exactly the stream values Shuffle(n, ...) would, and producing
// the permutation Shuffle would leave behind on the identity. dst must
// have length >= n; the filled prefix is returned.
func (s *Stream) PermInto(dst []int, n int) []int {
	p := dst[:n]
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes n elements in place using the provided swap function.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
