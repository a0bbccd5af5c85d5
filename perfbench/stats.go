package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples than this is one or two
// outliers, not a percentile.
const minBeyond = 10

// tailPercentiles are the percentiles a tail may be reported at, lowest
// first.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9, 99.99}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (0.999*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// nearestRank returns percentile p of sorted by the nearest-rank rule, or
// 0 for no samples.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// supports reports whether n samples leave at least minBeyond samples
// above percentile p.
func supports(p float64, n int) bool {
	return n > 0 && n-rank(p, n) >= minBeyond
}

// tailPercentile returns the highest of tailPercentiles that n samples
// support, or 0 when not even the median has minBeyond samples above it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if supports(p, n) {
			best = p
		}
	}
	return best
}

// dist summarizes one timing: its sample count, median, and the highest
// supported tail percentile with its value.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_percentile"`
	Tail  float64 `json:"tail"`
}

// summarize builds the dist of xs.
func summarize(xs []float64) dist {
	s := sortedCopy(xs)
	d := dist{N: len(s), P50: median(s)}
	if p := tailPercentile(len(s)); p > 0 {
		d.TailP, d.Tail = p, nearestRank(s, p)
	}
	return d
}

// pctOrTail returns percentile p of xs when the sample supports it and
// otherwise the highest supported tail (the median when none is), with
// the percentile actually reported.
func pctOrTail(xs []float64, p float64) (value, reported float64) {
	s := sortedCopy(xs)
	if supports(p, len(s)) {
		return nearestRank(s, p), p
	}
	if t := tailPercentile(len(s)); t > 0 {
		return nearestRank(s, t), t
	}
	return median(s), 50
}
