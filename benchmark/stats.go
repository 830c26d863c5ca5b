package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so p99 needs 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted and
// whether the sample supports it under the minBeyond rule.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if n == 0 || rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median is Python's statistics.median: the mean of the two middle values
// for an even count. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, so spreads computed here match ones computed with
// Python's statistics module. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, 0, false
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], true
}

// spread is the distance between the first and third quartile as a share
// of the median, the run-to-run noise measure of the acceptance rule.
func spread(xs []float64) float64 {
	q1, _, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// poissonSchedule returns the arrival offsets of a Poisson process of the
// given rate over [0, d), conditioned on exactly round(rate·d) arrivals:
// given its count, a Poisson process's arrival times are independent and
// uniform over the window, so the sorted uniforms are exactly such a
// process. Fixing the count keeps the offered load identical across seeds,
// so only the system under test moves throughput.
func poissonSchedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	n := int(math.Round(rate * d.Seconds()))
	rng := newRand(seed)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(d)))
	}
	slices.Sort(out)
	return out
}

// derive mixes tags into a seed (SplitMix64 finalizer), so every input of
// a workload draws its own stream from the one --seed. It is local to the
// benchmark so that only changes to the graph generators themselves can
// shift the generated inputs (see the pinned digest in inputs_test.go).
func derive(seed uint64, tags ...uint64) uint64 {
	h := seed ^ 0x6a09e667f3bcc909
	for _, t := range tags {
		h ^= t + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, derive(seed, 1)))
}

// durations converts samples to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
