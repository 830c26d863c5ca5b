package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestPercentileRule pins the reporting rule: a percentile needs at least
// ten samples beyond it, so p99 is refused below 1000 samples and p50
// below 20, and the value is the nearest-rank one.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{2000, 0.99, 1980, true},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{101, 0.5, 51, true},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

// TestQuartilesMatchPython checks quartiles against values printed by
// Python's statistics.quantiles(xs, n=4), the rule the acceptance check
// computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{0.93, 1.07, 0.98, 1.21, 1.02, 0.88, 1.11}, 0.93, 1.02, 1.11},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
		if !ok || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should be refused")
	}
	if got := spread([]float64{0.93, 1.07, 0.98, 1.21, 1.02, 0.88, 1.11}); math.Abs(got-0.18/1.02) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 0.18/1.02)
	}
	if median(seq(4)) != 2.5 || median(seq(5)) != 3 {
		t.Error("median differs from Python's statistics.median")
	}
}

// TestPoissonSchedule checks the open loop's arrivals: exactly rate·d of
// them, sorted, inside the window, reproducible from the seed, with
// exponential gaps (mean 1/rate, coefficient of variation 1).
func TestPoissonSchedule(t *testing.T) {
	const rate = 110
	d := 100 * time.Second
	s := poissonSchedule(7, rate, d)
	if len(s) != rate*100 {
		t.Fatalf("%d arrivals, want %d", len(s), rate*100)
	}
	if !slices.IsSorted(s) || s[0] < 0 || s[len(s)-1] >= d {
		t.Fatal("arrivals unsorted or outside the window")
	}
	if !slices.Equal(s, poissonSchedule(7, rate, d)) {
		t.Fatal("same seed gave a different schedule")
	}
	if slices.Equal(s, poissonSchedule(8, rate, d)) {
		t.Fatal("different seeds gave the same schedule")
	}
	gaps := make([]float64, len(s)-1)
	for i := range gaps {
		gaps[i] = (s[i+1] - s[i]).Seconds()
	}
	m := mean(gaps)
	var v float64
	for _, g := range gaps {
		v += (g - m) * (g - m)
	}
	cv := math.Sqrt(v/float64(len(gaps))) / m
	if math.Abs(m*rate-1) > 0.02 || math.Abs(cv-1) > 0.05 {
		t.Errorf("gap mean %.5fs (want %.5fs), CV %.3f (want 1)", m, 1.0/rate, cv)
	}
}

// TestVerdict covers the four outcomes of -compare on a lower-is-better
// metric with a 10% bound.
func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 100, 60, 140, 100, 75, 125, 100, 90}
	for _, c := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"faster everywhere", base, scale(base, 0.8), "improved"},
		{"within bound", base, scale(base, 1.05), "unchanged"},
		{"slower past the bound", base, scale(base, 1.2), "regressed"},
		{"base noisier than the bound", noisy, scale(noisy, 1.05), "unresolved"},
		{"noisy base, head far slower", noisy, scale(noisy, 1.5), "regressed"},
	} {
		if got := verdict(c.base, c.head, 0.10, false); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
