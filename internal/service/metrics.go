package service

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// metrics is the service's counter and histogram set. The counters and
// gauges behind Stats are declared once, in catalog; /v1/stats and
// /metrics both read them from there. Histogram families are registered
// unconditionally — the exposition's shape does not depend on
// Config.Observe — but only an armed service (Config.Observe) spends
// timer reads feeding them.
type metrics struct {
	reg *obs.Registry

	// live holds the running totals of the catalog's counter rows, in
	// the Stats fields those rows name. They are written only by atomic
	// adds (MaxBatchSize by raise) and read only through the catalog.
	live Stats
	// batchSizeSum backs Stats.MeanBatchSize; the fill-size histogram
	// below is the scrapeable distribution, so the raw sum stays
	// unregistered.
	batchSizeSum atomic.Int64

	// Latency histograms (armed by Config.Observe).
	reqDur                   [len(reqPaths)]*obs.Histogram
	stageDur                 [obs.NumStages]*obs.Histogram
	engineRounds, engineWall *obs.Histogram
	gateWait                 *obs.Histogram
	batchFill                *obs.Histogram
	storeFsync, storeCompact *obs.Histogram
	storeAppendBytes         *obs.Histogram
}

// Metric names the tests scrape for.
const (
	mRequests     = "evencycle_requests_total"
	mServed       = "evencycle_served_total"
	mRequestDur   = "evencycle_request_duration_seconds"
	mEngineRounds = "evencycle_engine_session_rounds"
	mGateWait     = "evencycle_gate_wait_seconds"
)

// stat is one catalog row: a /metrics series and the Stats field it
// fills. A counter row names its int64 field, which is both the running
// total in metrics.live and the snapshot's copy; a state row samples a
// value of the service on demand, for its gauge and for Stats alike.
type stat struct {
	family, help string
	key, value   string // the series' label; no label when key is ""
	gauge        bool   // exposed as a gauge, else as a counter
	field        func(*Stats) *int64
	state        func(*Service) int64
	fill         func(*Stats, int64)
}

const (
	servedHelp = "Successful requests partitioned by serve path."
	reasonHelp = "Failed requests attributed to the failure taxonomy."
	sessHelp   = "Engine sessions run, split solo vs fused."
	mutHelp    = "Corpus mutations, split applied vs all-duplicate no-ops."
	warmHelp   = "Warm-start lifecycle events (starts, later cache hits, full-run fallbacks)."
)

// catalog declares every counter and gauge behind a Stats field, once.
// newMetrics registers each row as its /metrics series, and Stats fills
// a snapshot by reading the rows in this order.
//
// The order is what makes a snapshot coherent without a lock. Every
// request increments requests at entry and exactly one exit counter (a
// serve path, or errors) at exit, and every failed request increments
// errors before its reason. Reading the reasons before errors, and
// every exit before requests, guarantees in every snapshot, however
// many requests are mid-flight,
//
//	requests ≥ hits + coalesced + amplified + computed + errors
//	errors   ≥ rejected + shed + deadline_exceeded + cancelled + panics
//
// Reorder the rows down to requests and the invariants break under load.
var catalog = [...]stat{
	{family: "evencycle_request_errors_total", help: reasonHelp, key: "reason", value: "rejected", field: func(st *Stats) *int64 { return &st.Rejected }},
	{family: "evencycle_request_errors_total", help: reasonHelp, key: "reason", value: "shed", field: func(st *Stats) *int64 { return &st.Shed }},
	{family: "evencycle_request_errors_total", help: reasonHelp, key: "reason", value: "deadline", field: func(st *Stats) *int64 { return &st.DeadlineExceeded }},
	{family: "evencycle_request_errors_total", help: reasonHelp, key: "reason", value: "cancelled", field: func(st *Stats) *int64 { return &st.Cancelled }},
	{family: "evencycle_request_errors_total", help: reasonHelp, key: "reason", value: "panic", field: func(st *Stats) *int64 { return &st.Panics }},
	{family: mServed, help: servedHelp, key: "path", value: "hit", field: func(st *Stats) *int64 { return &st.Hits }},
	{family: mServed, help: servedHelp, key: "path", value: "coalesced", field: func(st *Stats) *int64 { return &st.Coalesced }},
	{family: mServed, help: servedHelp, key: "path", value: "amplified", field: func(st *Stats) *int64 { return &st.Amplified }},
	{family: mServed, help: servedHelp, key: "path", value: "computed", field: func(st *Stats) *int64 { return &st.Computed }},
	{family: "evencycle_errors_total", help: "Failed requests (every error exit of Do).", field: func(st *Stats) *int64 { return &st.Errors }},
	{family: mRequests, help: "Detection requests entered (every Do call).", field: func(st *Stats) *int64 { return &st.Requests }},

	{family: "evencycle_corpus_mutations_total", help: mutHelp, key: "kind", value: "applied", field: func(st *Stats) *int64 { return &st.Mutations }},
	{family: "evencycle_corpus_mutations_total", help: mutHelp, key: "kind", value: "noop", field: func(st *Stats) *int64 { return &st.NoopMutations }},
	{family: "evencycle_warm_total", help: warmHelp, key: "event", value: "start", field: func(st *Stats) *int64 { return &st.WarmStarts }},
	{family: "evencycle_warm_total", help: warmHelp, key: "event", value: "hit", field: func(st *Stats) *int64 { return &st.WarmHits }},
	{family: "evencycle_warm_total", help: warmHelp, key: "event", value: "fallback", field: func(st *Stats) *int64 { return &st.Fallbacks }},
	{family: "evencycle_mean_session_ns", help: "EWMA of engine-session wall time feeding the admission estimate (nanoseconds).", gauge: true,
		state: func(s *Service) int64 { return s.meanSessionNs.Load() },
		fill:  func(st *Stats, v int64) { st.MeanSessionMS = float64(v) / 1e6 }},
	{family: "evencycle_engine_sessions_total", help: sessHelp, key: "mode", value: "fused", field: func(st *Stats) *int64 { return &st.FusedSessions }},
	{family: "evencycle_engine_sessions_total", help: sessHelp, key: "mode", value: "solo", field: func(st *Stats) *int64 { return &st.SoloSessions }},
	{family: "evencycle_fused_requests_total", help: "Requests served by fused sessions.", field: func(st *Stats) *int64 { return &st.FusedRequests }},
	{family: "evencycle_batches_formed_total", help: "Miss-path batches dispatched (any size).", field: func(st *Stats) *int64 { return &st.BatchesFormed }},
	{family: "evencycle_batch_size_max", help: "Largest fused batch dispatched so far.", gauge: true, field: func(st *Stats) *int64 { return &st.MaxBatchSize }},
	{family: "evencycle_cache_entries", help: "Verdict-cache entries resident.", gauge: true,
		state: func(s *Service) int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(s.cache.len())
		},
		fill: func(st *Stats, v int64) { st.CacheEntries = int(v) }},
	{family: "evencycle_gate_in_use", help: "Admission slots currently held.", gauge: true,
		state: func(s *Service) int64 { return int64(s.gate.InUse()) },
		fill:  func(st *Stats, v int64) { st.InFlight = int(v) }},
	{family: "evencycle_gate_waiting", help: "Requests queued for an admission slot.", gauge: true,
		state: func(s *Service) int64 { return int64(s.gate.Waiting()) },
		fill:  func(st *Stats, v int64) { st.Queued = int(v) }},
	{family: "evencycle_arena_bytes", help: "Detector state retained between misses (bytes).", gauge: true,
		state: func(s *Service) int64 { return s.rt.Arena.Bytes() },
		fill:  func(st *Stats, v int64) { st.ArenaBytes = v }},
}

// read returns the row's current value in s.
func (r *stat) read(s *Service) int64 {
	if r.state != nil {
		return r.state(s)
	}
	return atomic.LoadInt64(r.field(&s.live))
}

// store writes v into the row's Stats field.
func (r *stat) store(st *Stats, v int64) {
	if r.fill != nil {
		r.fill(st, v)
	} else {
		*r.field(st) = v
	}
}

// raise lifts the live total at p to n if n is larger.
func raise(p *int64, n int64) {
	for {
		cur := atomic.LoadInt64(p)
		if n <= cur || atomic.CompareAndSwapInt64(p, cur, n) {
			return
		}
	}
}

// reqPaths labels the request-duration histograms, indexed by the path
// constants: fused is a computed request whose batch held more than one.
var reqPaths = [...]string{"hit", "coalesced", "amplified", "computed", "fused"}

const (
	pathHit = iota
	pathCoalesced
	pathAmplified
	pathComputed
	pathFused
)

// newMetrics registers s's catalog rows, histograms and store gauges.
func newMetrics(s *Service) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}
	for i := range catalog {
		r := &catalog[i]
		typ := "counter"
		if r.gauge {
			typ = "gauge"
		}
		reg.Func(r.family, r.help, typ, r.key, r.value, func() int64 { return r.read(s) })
	}

	durBuckets := obs.DurationBuckets()
	for p, path := range reqPaths {
		m.reqDur[p] = reg.LabeledHistogram(mRequestDur, "Server-side request latency by serve path (successes only).",
			"path", path, durBuckets, 1e-9)
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		m.stageDur[st] = reg.LabeledHistogram("evencycle_stage_duration_seconds", "Wall-clock time spent in each request stage.",
			"stage", st.String(), durBuckets, 1e-9)
	}
	m.engineRounds = reg.Histogram(mEngineRounds, "CONGEST rounds per completed engine session.", obs.RoundBuckets(), 1)
	m.engineWall = reg.Histogram("evencycle_engine_session_seconds", "Wall-clock duration per completed engine session.", durBuckets, 1e-9)
	m.gateWait = reg.Histogram(mGateWait, "Admission-gate queue wait per granted slot.", durBuckets, 1e-9)
	m.batchFill = reg.Histogram("evencycle_batch_fill_size", "Fill size of executed miss-path batches.", obs.SizeBuckets(1024), 1)

	m.storeFsync = reg.Histogram("evencycle_store_fsync_seconds", "Journal fsync latency on the corpus append path.", durBuckets, 1e-9)
	m.storeAppendBytes = reg.Histogram("evencycle_store_append_bytes", "Framed size of journaled corpus records.", obs.SizeBuckets(16<<20), 1)
	m.storeCompact = reg.Histogram("evencycle_store_compact_seconds", "Corpus snapshot compaction duration.", durBuckets, 1e-9)

	// Store families read 0 without a store, so the exposition's family
	// set does not depend on configuration.
	persist := func(f func(store.Stats) int64) func() int64 {
		return func() int64 {
			if s.cfg.Persist == nil {
				return 0
			}
			return f(s.cfg.Persist.Stats())
		}
	}
	reg.Func("evencycle_store_wal_bytes", "Corpus journal size on disk.", "gauge", "", "",
		persist(func(st store.Stats) int64 { return st.WALBytes }))
	reg.Func("evencycle_store_graphs", "Durable corpus graphs resident.", "gauge", "", "",
		persist(func(st store.Stats) int64 { return int64(st.Graphs) }))
	reg.Func("evencycle_store_appends_total", "Corpus mutations journaled by this process.", "counter", "", "",
		persist(func(st store.Stats) int64 { return st.Appended }))
	reg.Func("evencycle_store_compactions_total", "Corpus snapshot compactions taken by this process.", "counter", "", "",
		persist(func(st store.Stats) int64 { return st.Compactions }))
	return m
}

// noteStage records one stage duration into the request's trace (when
// traced) and, on an armed service, the stage histogram. Called only
// from timed paths — the disarmed untraced hot path never reaches it.
func (s *Service) noteStage(tr *obs.Trace, st obs.Stage, d time.Duration) {
	tr.Add(st, d)
	if s.observe {
		s.stageDur[st].ObserveDuration(d)
	}
}

// Metrics returns the service's metric registry for exposition
// (cycleserved's GET /metrics). Always non-nil; histogram families are
// registered even when observation is disarmed, so the exposition shape
// is stable across configurations.
func (s *Service) Metrics() *obs.Registry {
	return s.reg
}
