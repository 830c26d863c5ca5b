// Package obs is the zero-dependency observability layer: an atomic
// metrics registry with Prometheus text exposition, and a per-request
// stage tracer.
//
// The registry holds counters and gauges sampled through a func at
// exposition time, and fixed-bucket histograms. Histogram.Observe is a
// handful of atomic adds — no locks, no allocation — so instrumented
// paths keep their AllocsPerRun pins; the owner of a sampled value
// keeps it as cheap to update. Registration is the only locked
// operation and happens at service construction.
//
// Exposition (Registry.WritePrometheus) renders the text format version
// 0.0.4: one # HELP and # TYPE line per family, cumulative histogram
// buckets with a +Inf terminal bucket plus _sum/_count, no exemplars,
// no timestamps. Histograms store native int64 units (nanoseconds,
// rounds, bytes) and apply a scale factor only at exposition, so the
// observe path stays integer-only.
//
// ParseExposition is the inverse: a strict parser for the same format,
// with Validate for histogram consistency, and CounterSum, Value and
// MergedHistogram for reading a scrape back. The exposition tests, the
// cycleserved HTTP replay tests and the benchmark harness's /metrics
// scrape use it.
//
// Trace accumulates wall-clock time per request stage (validate, queue
// wait, batch linger, engine, cache install). A nil *Trace disables
// tracing at the cost of one pointer compare per stage boundary — the
// same disarmed-cost discipline as internal/faultpoint. Nothing in this
// package feeds back into detector execution, so transcripts and
// determinism fingerprints are unaffected by observation.
package obs
