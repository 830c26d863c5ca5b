package main

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Server-side observability for HTTP runs (-metrics): the client scrapes
// GET /metrics before and after the replay, deltas the exposition, and
// reports the SERVER's view of the run — latency quantiles measured
// inside the service (no transport, no client scheduling) next to the
// client-observed ones, plus the counter deltas that cross-check the
// client's own tally. The scrape itself is strict: a malformed or
// internally inconsistent exposition (non-cumulative buckets, _count
// disagreeing with +Inf) fails the run, which is how CI keeps the
// /metrics surface honest under real concurrency.

// ServerMetricsDelta is the before/after difference of the server's
// exposition across one replay, recorded in LoadRecord.server_metrics.
type ServerMetricsDelta struct {
	// RequestsTotal/ServedTotal/ErrorsTotal are counter deltas over the
	// run (evencycle_requests_total and friends).
	RequestsTotal float64 `json:"requests_total"`
	ServedTotal   float64 `json:"served_total"`
	ErrorsTotal   float64 `json:"errors_total"`
	// DurationCount is the request-latency histogram's observation delta
	// — the server's count of successes it timed. P50/P99 are quantiles
	// interpolated from the bucket deltas (server-side latency: queue
	// wait and engine included, HTTP transport excluded).
	DurationCount float64 `json:"duration_count"`
	P50Ns         int64   `json:"p50_ns"`
	P99Ns         int64   `json:"p99_ns"`
}

// scrapeMetrics fetches and strictly parses the server's exposition.
func scrapeMetrics(addr string) (*obs.Exposition, error) {
	resp, err := httpClient.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	if err := exp.Validate(); err != nil {
		return nil, fmt.Errorf("inconsistent /metrics exposition: %w", err)
	}
	return exp, nil
}

// counterDelta is the increase of a counter family between two scrapes.
func counterDelta(before, after *obs.Exposition, name string) (float64, error) {
	b, _ := before.CounterSum(name)
	a, ok := after.CounterSum(name)
	if !ok {
		return 0, fmt.Errorf("metric %s absent from the scrape", name)
	}
	if a < b {
		return 0, fmt.Errorf("counter %s went backwards across the run (%v → %v)", name, b, a)
	}
	return a - b, nil
}

// metricsDelta computes the server-side view of the replay from the two
// scrapes.
func metricsDelta(before, after *obs.Exposition) (*ServerMetricsDelta, error) {
	d := &ServerMetricsDelta{}
	var err error
	if d.RequestsTotal, err = counterDelta(before, after, "evencycle_requests_total"); err != nil {
		return nil, err
	}
	if d.ServedTotal, err = counterDelta(before, after, "evencycle_served_total"); err != nil {
		return nil, err
	}
	if d.ErrorsTotal, err = counterDelta(before, after, "evencycle_errors_total"); err != nil {
		return nil, err
	}
	bh, err := before.MergedHistogram("evencycle_request_duration_seconds")
	if err != nil {
		return nil, err
	}
	ah, err := after.MergedHistogram("evencycle_request_duration_seconds")
	if err != nil {
		return nil, err
	}
	if ah == nil {
		return nil, fmt.Errorf("evencycle_request_duration_seconds absent — is the server running with -observe?")
	}
	dh := ah
	if bh != nil {
		if dh, err = ah.Sub(bh); err != nil {
			return nil, fmt.Errorf("delta of request_duration histograms: %w", err)
		}
	}
	d.DurationCount = dh.Count
	if dh.Count > 0 {
		if p := dh.Quantile(0.50); !math.IsNaN(p) {
			d.P50Ns = int64(p * 1e9)
		}
		if p := dh.Quantile(0.99); !math.IsNaN(p) {
			d.P99Ns = int64(p * 1e9)
		}
	}
	return d, nil
}

// checkServerMetrics gates the run on the server's own numbers: the
// duration histogram must have timed exactly the successes this client
// observed (nobody else was talking to the server, and no success
// escaped instrumentation), and the server-side p99 must stay under the
// bound when one is set.
func checkServerMetrics(d *ServerMetricsDelta, rec *LoadRecord, maxServerP99 time.Duration) error {
	successes := float64(rec.Totals.ByClass["2xx"] + rec.Totals.ByClass["2xx_retried"])
	if d.DurationCount != successes {
		return fmt.Errorf("server timed %.0f requests but the client completed %.0f — instrumentation and traffic disagree",
			d.DurationCount, successes)
	}
	if d.ServedTotal != successes {
		return fmt.Errorf("server served_total delta %.0f ≠ client successes %.0f", d.ServedTotal, successes)
	}
	if maxServerP99 > 0 && d.P99Ns > maxServerP99.Nanoseconds() {
		return fmt.Errorf("server-side p99 %s exceeds bound %s",
			time.Duration(d.P99Ns), maxServerP99)
	}
	return nil
}
