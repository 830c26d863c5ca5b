package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// The helpers below decide CI verdicts (hit-ratio, failure and
// metrics-consistency gates), so their arithmetic is pinned here.

func TestSummarize(t *testing.T) {
	ok := func(source string) sample { return sample{ns: 1000, source: source, class: "2xx"} }
	failed := func(class string) sample { return sample{ns: 1000, class: class, err: errors.New(class)} }
	cases := []struct {
		name      string
		samples   []sample
		completed int
		failures  int
		hitRatio  float64
		byClass   map[string]int
	}{
		{
			name:      "hit ratio excludes computed",
			samples:   []sample{ok("computed"), ok("cache"), ok("coalesced"), ok("amplified")},
			completed: 4, hitRatio: 0.75,
			byClass: map[string]int{"2xx": 4},
		},
		{
			name:      "all computed",
			samples:   []sample{ok("computed"), ok("computed")},
			completed: 2, hitRatio: 0,
			byClass: map[string]int{"2xx": 2},
		},
		{
			name:      "failures land in by_class",
			samples:   []sample{ok("cache"), failed("429"), failed("408"), failed("429"), failed("client_timeout")},
			completed: 1, failures: 4, hitRatio: 1,
			byClass: map[string]int{"2xx": 1, "429": 2, "408": 1, "client_timeout": 1},
		},
		{
			name: "2xx_retried counts as completed",
			samples: []sample{ok("computed"),
				{ns: 1000, source: "cache", class: "2xx_retried"}},
			completed: 2, hitRatio: 0.5,
			byClass: map[string]int{"2xx": 1, "2xx_retried": 1},
		},
		{
			name:     "nothing completed",
			samples:  []sample{failed("503")},
			failures: 1,
			byClass:  map[string]int{"503": 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := summarize(tc.samples, time.Second)
			tot := rec.Totals
			if tot.Completed != tc.completed || tot.Failures != tc.failures {
				t.Errorf("completed/failures = %d/%d, want %d/%d", tot.Completed, tot.Failures, tc.completed, tc.failures)
			}
			if tot.HitRatio != tc.hitRatio {
				t.Errorf("hit ratio = %v, want %v", tot.HitRatio, tc.hitRatio)
			}
			if len(tot.ByClass) != len(tc.byClass) {
				t.Errorf("by_class = %v, want %v", tot.ByClass, tc.byClass)
			}
			for class, n := range tc.byClass {
				if tot.ByClass[class] != n {
					t.Errorf("by_class[%s] = %d, want %d (all: %v)", class, tot.ByClass[class], n, tot.ByClass)
				}
			}
			if want := float64(tc.completed); rec.RPS != want {
				t.Errorf("rps over 1s = %v, want %v", rec.RPS, want)
			}
		})
	}
}

func TestCheckServerMetrics(t *testing.T) {
	rec := &LoadRecord{Totals: LoadTotals{ByClass: map[string]int{"2xx": 7, "2xx_retried": 3, "429": 5}}}
	cases := []struct {
		name    string
		delta   ServerMetricsDelta
		maxP99  time.Duration
		wantErr string
	}{
		{name: "agrees, retried successes counted",
			delta: ServerMetricsDelta{DurationCount: 10, ServedTotal: 10, P99Ns: 5e6}},
		{name: "duration count disagrees",
			delta:   ServerMetricsDelta{DurationCount: 7, ServedTotal: 10},
			wantErr: "server timed 7 requests but the client completed 10"},
		{name: "served_total disagrees",
			delta:   ServerMetricsDelta{DurationCount: 10, ServedTotal: 12},
			wantErr: "served_total delta 12"},
		{name: "p99 over bound",
			delta:   ServerMetricsDelta{DurationCount: 10, ServedTotal: 10, P99Ns: 5e6},
			maxP99:  time.Millisecond,
			wantErr: "server-side p99",
		},
		{name: "p99 within bound",
			delta:  ServerMetricsDelta{DurationCount: 10, ServedTotal: 10, P99Ns: 5e5},
			maxP99: time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkServerMetrics(&tc.delta, rec, tc.maxP99)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestTimeoutStride(t *testing.T) {
	for _, tc := range []struct {
		frac float64
		want int
	}{
		{0, 0}, {-0.5, 0}, {1, 1}, {2, 1}, {0.5, 2}, {0.25, 4}, {0.125, 8}, {0.3, 3}, {0.01, 100},
	} {
		if got := timeoutStride(tc.frac); got != tc.want {
			t.Errorf("timeoutStride(%v) = %d, want %d", tc.frac, got, tc.want)
		}
	}
}
