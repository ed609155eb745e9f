package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it as measured: below that, the percentile is one or
// two unlucky samples, not a property of the system.
const minBeyond = 10

// Gated numbers are medians over windows of their phase: the shared
// machine the benchmark was calibrated on has stretches of a few seconds
// in which every request is slower, and a median over windows lets such
// a stretch spoil one window instead of the run.
const (
	// maxWindows is how many equal windows a phase is split into.
	maxWindows = 5
	// minWindowSamples keeps every window's p90 at least minBeyond
	// samples from the top; phases with fewer samples get fewer windows.
	minWindowSamples = 100
)

// latencies returns the sorted latencies of samples in milliseconds,
// with every failed request entered as +Inf: a failure misses any
// latency limit.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		if s.ok() {
			out[i] = ms(s.done - s.due)
		} else {
			out[i] = math.Inf(1)
		}
	}
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank q-quantile of sorted values
// (ascending), or NaN when there are none.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest-rank position of the q-quantile among n
// sorted values. The small slack keeps q·n that is an integer in exact
// arithmetic (0.99·1000) from rounding up to the next rank.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// highestSupported returns the highest quantile of n samples that has at
// least minBeyond samples above it, or 0 when there is none.
func highestSupported(n int) float64 {
	if n <= minBeyond {
		return 0
	}
	return float64(n-minBeyond) / float64(n)
}

// median returns the middle of values (the mean of the two middle ones
// for an even count); values need not be sorted.
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// quartiles returns the first quartile, median and third quartile of
// values with the same rule as Python's statistics.quantiles(values,
// n=4) (the "exclusive" method), so spreads computed here agree with a
// reader's own script. One value is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		if delta == 0 {
			q[i-1] = d[j-1] // no interpolation; also keeps +Inf·0 from making NaN
			continue
		}
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread returns the interquartile distance of values as a share of
// their median.
func spread(values []float64) float64 {
	q1, m, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(m)
}

// windowedPercentile returns the median, over equal windows of the phase
// by due time, of each window's q-quantile latency in milliseconds.
func windowedPercentile(r phaseResult, q float64) float64 {
	k := min(maxWindows, max(1, len(r.samples)/minWindowSamples))
	width := r.phase.dur / time.Duration(k)
	windows := make([][]sample, k)
	for _, s := range r.samples {
		w := min(int(s.due/width), k-1)
		windows[w] = append(windows[w], s)
	}
	values := make([]float64, 0, k)
	for _, w := range windows {
		if len(w) > 0 {
			values = append(values, percentile(latencies(w), q))
		}
	}
	return median(values)
}
