package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminismSameSeed(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: streams with same seed diverged: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws of 100", same)
	}
}

func TestNearbySeedsDecorrelate(t *testing.T) {
	// Adjacent seeds must not produce correlated early output (seed
	// expansion via SplitMix64 plus burn-in should handle this).
	a, b := New(0), New(1)
	matches := 0
	for i := 0; i < 64; i++ {
		if a.Uint64()>>32 == b.Uint64()>>32 {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("adjacent seeds look correlated: %d high-word matches", matches)
	}
}

func TestSplitIndependentOfParentPosition(t *testing.T) {
	a := New(7)
	b := New(7)
	// Consume the parent differently; children must be identical.
	for i := 0; i < 13; i++ {
		a.Uint64()
	}
	ca, cb := a.Split("child"), b.Split("child")
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("Split depends on parent draw position; must be pure in (seed, label)")
		}
	}
}

func TestSplitDistinctLabels(t *testing.T) {
	p := New(9)
	a, b := p.Split("layer1/W"), p.Split("layer1/b")
	if a.Uint64() == b.Uint64() {
		t.Fatal("distinct labels produced identical first draw")
	}
}

func TestSplitIndexDistinct(t *testing.T) {
	p := New(3)
	seen := map[uint64]int{}
	for i := 0; i < 100; i++ {
		v := p.SplitIndex(i).Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("SplitIndex(%d) and SplitIndex(%d) collide", i, j)
		}
		seen[v] = i
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	s := New(12)
	for i := 0; i < 10000; i++ {
		f := s.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 out of [0,1): %v", f)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(13)
	for _, n := range []int{1, 2, 3, 7, 10, 1000} {
		counts := make([]int, n)
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) out of range: %d", n, v)
			}
			counts[v]++
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(14)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Intn(%d): value %d count %d far from expected %.0f", n, v, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(15)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(16)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

// TestPermIntoMatchesShuffle pins PermInto's own Fisher–Yates loop
// against Shuffle applied to the identity: the same permutation, and the
// same stream state afterwards, for every n in 0…300 over many seeds. A
// stale dst must not leak into the result.
func TestPermIntoMatchesShuffle(t *testing.T) {
	dst := make([]int, 301)
	for seed := uint64(0); seed < 40; seed++ {
		for n := 0; n <= 300; n++ {
			got, ref := New(seed*7919+uint64(n)), New(seed*7919+uint64(n))
			for i := range dst {
				dst[i] = -1
			}
			p := got.PermInto(dst, n)

			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			ref.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })

			if len(p) != n {
				t.Fatalf("seed %d n %d: PermInto length %d", seed, n, len(p))
			}
			for i := range want {
				if p[i] != want[i] {
					t.Fatalf("seed %d n %d: PermInto[%d] = %d, Shuffle gives %d", seed, n, i, p[i], want[i])
				}
			}
			if *got != *ref {
				t.Fatalf("seed %d n %d: stream state differs after PermInto", seed, n)
			}
		}
	}
}

func TestPermPropertyBased(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		sum := 0
		for _, v := range p {
			sum += v
		}
		return sum == n*(n-1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(17)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	s := New(18)
	dst := make([]float32, 4096)
	s.Split("w").GlorotUniform(dst, 64, 64)
	limit := float32(math.Sqrt(6.0 / 128.0))
	var minV, maxV float32 = 0, 0
	for _, v := range dst {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if minV < -limit || maxV > limit {
		t.Fatalf("Glorot values outside [-%v, %v]: min=%v max=%v", limit, limit, minV, maxV)
	}
	if maxV < limit*0.8 || minV > -limit*0.8 {
		t.Fatalf("Glorot values suspiciously narrow: min=%v max=%v limit=%v", minV, maxV, limit)
	}
}

func TestHeNormalStd(t *testing.T) {
	s := New(19)
	dst := make([]float32, 100000)
	s.HeNormal(dst, 50)
	var sum, sumSq float64
	for _, v := range dst {
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	n := float64(len(dst))
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	want := math.Sqrt(2.0 / 50.0)
	if math.Abs(std-want)/want > 0.05 {
		t.Fatalf("He std = %v, want ~%v", std, want)
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(20)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestShuffleDeterministic(t *testing.T) {
	mk := func() []int {
		v := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		New(33).Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		return v
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffle with same seed differs between runs")
		}
	}
}

func TestUint64BitBalance(t *testing.T) {
	// Each bit position should be set roughly half the time.
	s := New(21)
	const n = 20000
	var counts [64]int
	for i := 0; i < n; i++ {
		v := s.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<b) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/2) > 4*math.Sqrt(n/4) {
			t.Errorf("bit %d set %d/%d times; biased", b, c, n)
		}
	}
}
