package service

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/deterministic"
	"repro/internal/graph"
	"repro/internal/lowprob"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/store"
)

// Algo names a detector family servable by the Service.
type Algo string

// The servable detector families. They are exactly the classical
// detectors whose results share the Response shape; the quantum detectors
// report a different cost model (charged rounds) and stay on the direct
// facade path.
const (
	// AlgoEven is Algorithm 1: C_{2k}-freeness, randomized, one-sided.
	AlgoEven Algo = "even"
	// AlgoBounded is the F_{2k} bounded-length family detector.
	AlgoBounded Algo = "bounded"
	// AlgoOdd is the Section 3.4 C_{2k+1} detector (classical repetition).
	AlgoOdd Algo = "odd"
	// AlgoDet is the deterministic broadcast-CONGEST detector
	// (arXiv:2412.11195): seedless, verdict a pure function of the graph.
	AlgoDet Algo = "det"
)

// randomized reports whether the algo draws randomness (and therefore
// carries a trial budget and a seed in its cache key).
func (a Algo) randomized() bool { return a != AlgoDet }

// ParseAlgo resolves the wire names (including aliases) to an Algo.
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "even", "classical", "":
		return AlgoEven, nil
	case "bounded":
		return AlgoBounded, nil
	case "odd":
		return AlgoOdd, nil
	case "det", "deterministic":
		return AlgoDet, nil
	}
	return "", fmt.Errorf("service: unknown algo %q (want even|bounded|odd|det)", s)
}

// Request is one detection request. Graph is required; the remaining
// fields mirror the facade's Detect* options.
type Request struct {
	Graph *graph.Graph
	Algo  Algo
	// K is the half cycle length: detect C_2k (AlgoOdd: C_{2k+1}).
	K int
	// Seed is the master random seed of randomized algos (ignored and
	// normalized to 0 in the cache key for AlgoDet).
	Seed uint64
	// Iterations is the trial budget of randomized algos and must be ≥ 1:
	// a service request states its budget explicitly (the faithful
	// iteration counts are astronomically large for k ≥ 3, so an implicit
	// "faithful" default would be an availability hazard). Ignored for
	// AlgoDet, which runs a single session.
	Iterations int
	// Threshold overrides the congestion threshold τ (0 = faithful).
	Threshold int
	// Eps is the one-sided error probability of AlgoEven/AlgoBounded
	// (0 = the default 1/3); it parameterizes τ and p exactly as the
	// direct Detect path's WithError does, and is part of the cache key.
	// AlgoOdd and AlgoDet take no ε and normalize it away.
	Eps float64
	// Pipelined selects the pipelined color-BFS schedule (AlgoEven and
	// AlgoBounded only).
	Pipelined bool
	// Deadline bounds this request's total time in the service (queue
	// wait included): 0 adopts Config.DefaultDeadline, and any value is
	// capped by Config.MaxDeadline. An expired deadline cancels the
	// engine session cooperatively and surfaces as ErrDeadline.
	Deadline time.Duration
	// Trace, when non-nil, accumulates per-stage wall-clock time for
	// THIS request (validate → queue wait → batch linger → engine →
	// cache install) regardless of Config.Observe — tracing is a
	// per-request opt-in. The Response body is untouched; callers
	// surface the trace themselves (the HTTP server's opt-in `trace`
	// field and X-Evencycle-Stage-* headers). Leave nil on shared
	// Request templates: the tracer is written by whichever goroutine
	// computes the stage, including a fused batch's leader.
	Trace *obs.Trace
}

// Response is the cached, deterministic portion of a detection answer: it
// contains the verdict and domain costs but no wall-clock or serve-path
// metadata, so repeated deterministic-mode requests serialize to
// byte-identical responses no matter how they were served.
type Response struct {
	Algo          Algo           `json:"algo"`
	K             int            `json:"k"`
	Fingerprint   string         `json:"fingerprint"`
	Found         bool           `json:"found"`
	Witness       []graph.NodeID `json:"witness,omitempty"`
	FoundLen      int            `json:"found_len,omitempty"`
	Rounds        int            `json:"rounds"`
	Messages      int64          `json:"messages"`
	Bits          int64          `json:"bits"`
	MaxCongestion int            `json:"max_congestion"`
	Overflowed    bool           `json:"overflowed"`
	// Iterations is the cumulative trial budget behind this verdict (0
	// for the deterministic detector's single session).
	Iterations int `json:"iterations"`
}

// Source says how a request was served.
type Source string

// Serve paths, from cheapest to most expensive.
const (
	// SourceCache: pure cache hit — no engine work, no queuing.
	SourceCache Source = "cache"
	// SourceCoalesced: waited on an identical in-flight computation.
	SourceCoalesced Source = "coalesced"
	// SourceAmplified: a cached not-found entry ran only the additional
	// trials the request asked for beyond the recorded budget.
	SourceAmplified Source = "amplified"
	// SourceComputed: full computation.
	SourceComputed Source = "computed"
)

// Config tunes a Service. The zero value gets sensible defaults.
type Config struct {
	// Slots is the number of concurrent computations admitted (the worker
	// pool bound); 0 means GOMAXPROCS.
	Slots int
	// MaxQueue bounds the admission queue: requests that would queue
	// deeper are rejected with ErrOverloaded. 0 means 1024; negative
	// means unbounded.
	MaxQueue int
	// CacheEntries is the LRU verdict-cache capacity; 0 means 1024.
	CacheEntries int
	// Parallel is the per-request trial parallelism of the bounded and
	// odd detectors (0/1 sequential, negative GOMAXPROCS): the pool bound
	// applies to requests, and Parallel spends such a request's slot
	// wider. Even and det misses run their trials on one fused engine
	// session at any batch size and ignore it; responses are identical
	// either way.
	Parallel int
	// Workers and Shards configure each engine session (see
	// congest.Engine); 0 keeps the engine defaults.
	Workers int
	Shards  int
	// BatchSize caps the fused miss-path batch: up to this many
	// compatible cache misses share one engine session on the disjoint
	// union of their graphs. 0 means 8; ≤ 1 disables batching: every miss
	// runs at once as a batch of one under its own admission slot. With
	// batching on, a miss that finds no other miss active also runs at
	// once as a batch of one: there is nothing to fuse it with.
	BatchSize int
	// BatchLinger is how long an under-full batch waits for joiners
	// before dispatching. Only a miss that arrives while another miss is
	// active enters a batch, so a lone miss never pays it. 0 means 2ms;
	// negative dispatches immediately.
	BatchLinger time.Duration
	// DefaultDeadline bounds requests that state no deadline of their
	// own; 0 leaves them unbounded. MaxDeadline caps every request's
	// deadline (including the default); 0 means no cap. Earliest wins
	// against any deadline already on the caller's context.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Persist, when set, is the durable corpus store backing the mutation
	// API: New preloads the recovered corpus from it, and CreateCorpus /
	// AddCorpusEdges / DeleteCorpus journal through it before a mutation
	// becomes visible. Nil keeps the corpus memory-only. The Service takes
	// over mutation of the store but not its lifecycle: the owner still
	// closes it after the service drains.
	Persist *store.Store
	// Observe arms latency observation: serve-path and stage-duration
	// histograms, engine session round/wall histograms, gate wait and
	// batch fill distributions, and store fsync/append/compaction
	// timings. Counters (and the /metrics endpoint itself) work either
	// way. Disarmed (the zero value), the request hot path performs no
	// clock reads and no observation hooks are installed anywhere —
	// determinism fingerprints and zero-alloc pins are untouched, the
	// same contract as congest.Engine.Observe.
	Observe bool
}

// ErrOverloaded is returned when the admission queue is full. It wraps
// ErrShed — queue overflow is one way of shedding load — so both map to
// the same retryable HTTP status.
var ErrOverloaded = fmt.Errorf("admission queue full: %w", ErrShed)

// ErrUnknownCorpus is returned (wrapped) by Resolve when a request names
// a corpus graph that is not registered; the HTTP server maps it to 404.
var ErrUnknownCorpus = fmt.Errorf("service: unknown corpus graph")

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	// Requests counts every Do call; the four serve-path counters
	// partition the successful ones.
	Requests  int64 `json:"requests"`
	Hits      int64 `json:"hits"`
	Coalesced int64 `json:"coalesced"`
	Amplified int64 `json:"amplified"`
	Computed  int64 `json:"computed"`
	// Errors counts failed requests; the five counters below attribute
	// them to failure domains. Rejected is the queue-full (ErrOverloaded)
	// subset and Shed the deadline-aware admission rejections; Deadline-
	// Exceeded and Cancelled are requests that died after admission; and
	// Panics counts contained detector/batch-leader crashes (ErrInternal).
	Errors           int64 `json:"errors"`
	Rejected         int64 `json:"rejected"`
	Shed             int64 `json:"shed"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Cancelled        int64 `json:"cancelled"`
	Panics           int64 `json:"panics"`
	// BatchesSkipped counts fused batches whose every waiter abandoned
	// them before dispatch: their engine run was skipped entirely.
	BatchesSkipped int64 `json:"batches_skipped"`
	// Mutations counts corpus mutations that changed a graph;
	// NoopMutations the all-duplicate batches that changed nothing (and
	// journaled nothing). WarmStarts counts cached parent verdicts carried
	// to child fingerprints at mutation time, Fallbacks the subset whose
	// localization precondition failed and ran a full detection instead,
	// and WarmHits the cache hits later served from warmed entries.
	// LastMutationParent/Child are the fingerprints of the most recent
	// parent→child lineage edge.
	Mutations          int64  `json:"mutations"`
	NoopMutations      int64  `json:"noop_mutations"`
	WarmStarts         int64  `json:"warm_starts"`
	WarmHits           int64  `json:"warm_hits"`
	Fallbacks          int64  `json:"fallbacks"`
	LastMutationParent string `json:"last_mutation_parent,omitempty"`
	LastMutationChild  string `json:"last_mutation_child,omitempty"`
	// MeanSessionMS is the EWMA of engine-session wall time that the
	// deadline-aware admission check estimates queue wait from.
	MeanSessionMS float64 `json:"mean_session_ms"`
	// EngineSessions counts engine sessions that produced verdicts, ONE
	// per batch whatever its size: the "work actually done" number that
	// cache hits, coalescing and batching save. A fused session serves a
	// whole batch, so it can be smaller than computed + amplified.
	EngineSessions int64 `json:"engine_sessions"`
	// SoloSessions and FusedSessions split EngineSessions into batches
	// of one and larger batches; FusedRequests counts the requests those
	// fused sessions served. A miss that arrived with no other miss
	// active counts as a solo session.
	FusedSessions int64 `json:"fused_sessions"`
	SoloSessions  int64 `json:"solo_sessions"`
	FusedRequests int64 `json:"fused_requests"`
	// BatchesFormed counts miss-path batches dispatched through the
	// batcher (any size); MeanBatchSize and MaxBatchSize describe their
	// size distribution. Misses that arrived with no other miss active
	// never enter the batcher and never count here.
	BatchesFormed int64   `json:"batches_formed"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	MaxBatchSize  int64   `json:"max_batch_size"`
	// CacheEntries is the current verdict-cache size, InFlight the
	// computations currently holding pool slots, Queued the admission
	// queue length.
	CacheEntries int `json:"cache_entries"`
	InFlight     int `json:"in_flight"`
	Queued       int `json:"queued"`
}

// Service is a concurrent, caching detection server. Create with New;
// safe for concurrent use.
type Service struct {
	cfg  Config
	gate *sched.Gate

	mu       sync.Mutex
	cache    *lru
	inflight map[cacheKey]*call

	corpusMu sync.RWMutex
	corpus   map[string]*graph.Graph

	jobs jobRegistry

	batcher *sched.Batcher[compatKey, *fuseItem, fuseOut]

	// metrics holds every counter (registry-backed; see metrics.go) —
	// the fields promote, so s.requests.Add(1) reads as before.
	*metrics
	// observe mirrors Config.Observe: true arms the latency/stage
	// timers on the request path.
	observe bool
	// engineObs is handed to every detector run as Options.Observe when
	// armed (nil when disarmed — the engine then skips its clock reads).
	engineObs func(rounds int, wall time.Duration)

	// lineageMu guards the most recent parent→child fingerprint edge a
	// corpus mutation created (surfaced in Stats).
	lineageMu             sync.Mutex
	lastParent, lastChild graph.Fingerprint

	// meanSessionNs is an EWMA (α = 1/8) of engine-session wall time,
	// feeding the admission check's queue-wait estimate.
	meanSessionNs atomic.Int64

	// activeMisses counts miss leaders inside dispatch, of any algo. A
	// fusable miss that finds it at zero has nothing to fuse with and
	// skips the batcher's linger.
	activeMisses atomic.Int64

	// computeHook, when set, replaces the detector dispatch — tests use it
	// to block and count computations deterministically. Never set in
	// production paths.
	computeHook func(req *Request, fp graph.Fingerprint, prior *entry) (*Response, bool, error)
}

// call is one in-flight computation; followers wait on done.
type call struct {
	done chan struct{}
	// targetIter is the budget the computation will have accumulated when
	// it finishes (entry budget + delta); followers needing no more than
	// this coalesce onto it.
	targetIter int
	resp       *Response
	err        error
}

// New creates a Service.
func New(cfg Config) *Service {
	if cfg.Slots <= 0 {
		cfg.Slots = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 1024
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 8
	}
	if cfg.BatchLinger == 0 {
		cfg.BatchLinger = 2 * time.Millisecond
	}
	s := &Service{
		cfg:      cfg,
		gate:     sched.NewGate(cfg.Slots),
		cache:    newLRU(cfg.CacheEntries),
		inflight: make(map[cacheKey]*call),
		corpus:   make(map[string]*graph.Graph),
		metrics:  newMetrics(),
		observe:  cfg.Observe,
	}
	if cfg.Persist != nil {
		// Preload the recovered durable corpus: every graph acknowledged
		// before the last shutdown or crash is servable before the first
		// request arrives.
		for _, name := range cfg.Persist.Names() {
			if g, ok := cfg.Persist.Get(name); ok {
				s.corpus[name] = g
			}
		}
	}
	if cfg.BatchSize > 1 {
		s.batcher = &sched.Batcher[compatKey, *fuseItem, fuseOut]{
			MaxBatch: cfg.BatchSize,
			Linger:   cfg.BatchLinger,
			// Bound the fused union well below the wire format's node cap
			// (and below sizes where one giant component would serialize the
			// whole batch behind itself).
			Weight:    func(it *fuseItem) int { return it.req.Graph.NumNodes() },
			MaxWeight: congest.MaxNodes / 16,
			Exec: func(ck compatKey, items []*fuseItem) ([]fuseOut, error) {
				s.batchesFormed.Add(1)
				s.batchSizeSum.Add(int64(len(items)))
				s.maxBatchSize.Max(int64(len(items)))
				return s.execBatch(context.Background(), ck, items)
			},
		}
	}
	s.jobs.init()

	// State gauges and derived totals are registered unconditionally so
	// the exposition's family set does not depend on configuration;
	// families whose source is absent (no store, no batcher) read 0.
	s.reg.GaugeFunc("evencycle_gate_in_use", "Admission slots currently held.",
		func() int64 { return int64(s.gate.InUse()) })
	s.reg.GaugeFunc("evencycle_gate_waiting", "Requests queued for an admission slot.",
		func() int64 { return int64(s.gate.Waiting()) })
	s.reg.GaugeFunc("evencycle_cache_entries", "Verdict-cache entries resident.", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.cache.len())
	})
	s.reg.GaugeFunc("evencycle_mean_session_ns",
		"EWMA of engine-session wall time feeding the admission estimate (nanoseconds).",
		s.meanSessionNs.Load)
	s.reg.CounterFunc("evencycle_batches_skipped_total",
		"Fused batches skipped because every waiter abandoned them.", func() int64 {
			if s.batcher == nil {
				return 0
			}
			return s.batcher.Skipped()
		})
	s.reg.GaugeFunc("evencycle_store_wal_bytes", "Corpus journal size on disk.", func() int64 {
		if cfg.Persist == nil {
			return 0
		}
		return cfg.Persist.Stats().WALBytes
	})
	s.reg.GaugeFunc("evencycle_store_graphs", "Durable corpus graphs resident.", func() int64 {
		if cfg.Persist == nil {
			return 0
		}
		return int64(cfg.Persist.Stats().Graphs)
	})
	s.reg.CounterFunc("evencycle_store_appends_total",
		"Corpus mutations journaled by this process.", func() int64 {
			if cfg.Persist == nil {
				return 0
			}
			return cfg.Persist.Stats().Appended
		})
	s.reg.CounterFunc("evencycle_store_compactions_total",
		"Corpus snapshot compactions taken by this process.", func() int64 {
			if cfg.Persist == nil {
				return 0
			}
			return cfg.Persist.Stats().Compactions
		})

	if cfg.Observe {
		// Arm the per-layer hooks. Each is one histogram observation —
		// two atomic adds — per event; none are installed when disarmed,
		// so the zero-value Config costs only the nil checks the hooks'
		// owners already perform.
		s.gate.Observe = func(w time.Duration) { s.gateWait.ObserveDuration(w) }
		if s.batcher != nil {
			s.batcher.Observe = func(size int) { s.batchFill.Observe(int64(size)) }
		}
		s.engineObs = func(rounds int, wall time.Duration) {
			s.engineRounds.Observe(int64(rounds))
			s.engineWall.ObserveDuration(wall)
		}
		if cfg.Persist != nil {
			cfg.Persist.SetObserver(&store.Observer{
				Append:  func(n int) { s.storeAppendBytes.Observe(int64(n)) },
				Fsync:   func(d time.Duration) { s.storeFsync.ObserveDuration(d) },
				Compact: func(d time.Duration) { s.storeCompact.ObserveDuration(d) },
			})
		}
	}
	return s
}

// validate rejects malformed requests before they consume a pool slot,
// and normalizes req.Algo to its canonical name (aliases like
// "classical" or "deterministic" would otherwise slip past the
// string-keyed cache and dispatch switches).
func validate(req *Request) error {
	if req.Graph == nil {
		return fmt.Errorf("service: request has no graph")
	}
	algo, err := ParseAlgo(string(req.Algo))
	if err != nil {
		return err
	}
	req.Algo = algo
	minK := 2
	if req.Algo == AlgoOdd {
		minK = 1
	}
	if req.K < minK {
		return fmt.Errorf("service: algo %s needs k ≥ %d, got %d", req.Algo, minK, req.K)
	}
	if req.Algo.randomized() && req.Iterations < 1 {
		return fmt.Errorf("service: algo %s requires an explicit trial budget (iterations ≥ 1), got %d",
			req.Algo, req.Iterations)
	}
	if req.Threshold < 0 {
		return fmt.Errorf("service: negative threshold %d", req.Threshold)
	}
	if req.Eps != 0 && (req.Eps <= 0 || req.Eps >= 1) {
		return fmt.Errorf("service: ε = %v outside (0,1)", req.Eps)
	}
	if req.Deadline < 0 {
		return fmt.Errorf("service: negative deadline %v", req.Deadline)
	}
	return nil
}

// requestContext applies the request's deadline — or the server default
// when the request states none — capped by Config.MaxDeadline.
// context.WithTimeout keeps an earlier deadline already on ctx, so the
// effective deadline is always the earliest of caller, request and cap.
func (s *Service) requestContext(ctx context.Context, req *Request) (context.Context, context.CancelFunc) {
	d := req.Deadline
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (d <= 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// admissible is the deadline-aware admission check: a request whose
// remaining deadline cannot cover the estimated queue wait is shed
// immediately — failing in microseconds instead of timing out after
// queuing — leaving the queue to requests that can still make it.
// Called with s.mu held (the same ordering as the MaxQueue check).
func (s *Service) admissible(ctx context.Context) error {
	dl, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	remaining := time.Until(dl)
	if remaining <= 0 {
		return fmt.Errorf("%w: deadline expired before admission", ErrDeadline)
	}
	if wait := s.estimatedQueueWait(); wait > remaining {
		return fmt.Errorf("%w: estimated queue wait %v exceeds remaining deadline %v", ErrShed, wait, remaining)
	}
	return nil
}

// estimatedQueueWait predicts how long a newly queued request waits for
// an admission slot: queue-ahead-of-us times the EWMA session duration,
// divided by the slot count (multiplied first, so a queue shorter than
// the slot count still estimates a wait). Zero until the first session
// completes — an idle or cold service never sheds on an estimate it
// doesn't have.
func (s *Service) estimatedQueueWait() time.Duration {
	mean := s.meanSessionNs.Load()
	if mean == 0 {
		return 0
	}
	waiting := int64(s.gate.Waiting())
	return time.Duration(waiting * mean / int64(s.gate.Slots()))
}

// noteSessionDuration folds one engine-session wall time into the EWMA.
func (s *Service) noteSessionDuration(d time.Duration) {
	n := d.Nanoseconds()
	for {
		old := s.meanSessionNs.Load()
		next := n
		if old != 0 {
			next = old + (n-old)/8
		}
		if s.meanSessionNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// Info describes how a request was served beyond its Source.
type Info struct {
	Source Source
	// Batch is the size of the engine batch the request was computed in:
	// 1 for a solo session, > 1 when the request was fused with
	// concurrent compatible misses, 0 when no session ran for it (cache
	// hits, coalesced waits, errors).
	Batch int
}

// Do serves one detection request: cache hit, coalesce onto an identical
// in-flight computation, amplify a cached not-found entry, or compute —
// possibly fused with concurrent compatible misses (see Config.BatchSize).
// The returned Source says which path served it. ctx cancellation is
// honored while queued for admission, while waiting on another request's
// computation, and inside a miss computed as a direct batch of one (as
// every miss that finds no other miss active is); a fused batch that has
// started always runs to completion (its results
// are cached for everyone).
func (s *Service) Do(ctx context.Context, req *Request) (*Response, Source, error) {
	resp, info, err := s.DoInfo(ctx, req)
	return resp, info.Source, err
}

// DoInfo is Do with serve-path metadata (batch size) for callers that
// surface it, like the HTTP server's X-Evencycle-Batch header.
func (s *Service) DoInfo(ctx context.Context, req *Request) (*Response, Info, error) {
	s.requests.Add(1)
	// Work on a copy: validate normalizes the algo name, and mutating the
	// caller's Request would make sharing one Request across goroutines a
	// data race.
	local := *req
	req = &local
	// timed arms the stage/latency clock reads: for every request of an
	// observed service, or for the single request that opted into a
	// trace. Disarmed and untraced, this path reads no clocks at all.
	timed := s.observe || req.Trace != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if err := validate(req); err != nil {
		s.errors.Add(1)
		return nil, Info{}, err
	}
	if timed {
		s.noteStage(req.Trace, obs.StageValidate, time.Since(t0))
	}
	ctx, cancelCtx := s.requestContext(ctx, req)
	defer cancelCtx()
	fp := req.Graph.Fingerprint()
	key := keyFor(req, fp)

	for {
		s.mu.Lock()
		if ent := s.cache.get(key); ent != nil && ent.serves(req.Algo, req.Iterations) {
			resp := ent.resp
			warmed := ent.warmed
			s.mu.Unlock()
			s.hits.Add(1)
			if warmed {
				s.warmHits.Add(1)
			}
			if s.observe {
				s.durHit.ObserveDuration(time.Since(t0))
			}
			return resp, Info{Source: SourceCache}, nil
		}
		if c, ok := s.inflight[key]; ok {
			// A follower coalesces when the in-flight computation's budget
			// covers its own (a Found result covers any budget; the check
			// below re-verifies after completion).
			covered := req.Algo == AlgoDet || c.targetIter >= req.Iterations
			s.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				err := classifyErr(ctx, ctx.Err())
				s.countError(err)
				return nil, Info{}, err
			}
			if c.err == nil && (covered || c.resp.Found) {
				s.coalesced.Add(1)
				if s.observe {
					s.durCoalesced.ObserveDuration(time.Since(t0))
				}
				return c.resp, Info{Source: SourceCoalesced}, nil
			}
			// Leader failed, or its budget was short of ours: re-enter.
			continue
		}

		// We are the leader. Snapshot the prior entry (if any) for
		// amplification before releasing the lock; the in-flight map keeps
		// other leaders for this key out until finish().
		prior := s.cache.get(key)
		c := &call{done: make(chan struct{}), targetIter: req.Iterations}
		s.inflight[key] = c
		var admit error
		if s.cfg.MaxQueue >= 0 && s.gate.Waiting() >= s.cfg.MaxQueue {
			admit = ErrOverloaded
		} else {
			admit = s.admissible(ctx)
		}
		if admit != nil {
			delete(s.inflight, key)
		}
		s.mu.Unlock()
		if admit != nil {
			c.err = admit
			close(c.done)
			s.countError(admit)
			return nil, Info{}, admit
		}

		resp, amplified, batch, err := s.dispatch(ctx, req, fp, key, prior)
		if err != nil {
			err = classifyErr(ctx, err)
			s.finish(key, c, nil, err)
			s.countError(err)
			return nil, Info{}, err
		}
		source := SourceComputed
		if amplified {
			source = SourceAmplified
			s.amplified.Add(1)
		} else {
			s.computed.Add(1)
		}
		s.finish(key, c, resp, nil)
		if s.observe {
			s.durFor(source, batch).ObserveDuration(time.Since(t0))
		}
		return resp, Info{Source: source, Batch: batch}, nil
	}
}

// dispatch runs the leader's computation: through the batcher when the
// request is fusable, batching is on and another miss is active to fuse
// with, otherwise at once as a batch of one under the request's context.
// It returns the batch size the work ran in.
func (s *Service) dispatch(ctx context.Context, req *Request, fp graph.Fingerprint, key cacheKey, prior *entry) (*Response, bool, int, error) {
	item := &fuseItem{req: req, fp: fp, key: key, prior: prior}
	lone := s.activeMisses.Add(1) == 1
	defer s.activeMisses.Add(-1)
	if lone || s.batcher == nil || !fusable(req.Algo) || s.computeHook != nil {
		outs, err := s.execBatch(ctx, compatFor(req), []*fuseItem{item})
		if err != nil {
			return nil, false, 0, err
		}
		return outs[0].resp, outs[0].amplified, 1, outs[0].err
	}
	if s.observe || req.Trace != nil {
		item.enqueued = time.Now()
	}
	out, batch, err := s.batcher.Do(ctx, compatFor(req), item)
	if err != nil {
		// ctx expired while waiting for the batch (the batch itself still
		// computes and caches the item), or the batcher misbehaved.
		return nil, false, 0, err
	}
	return out.resp, out.amplified, batch, out.err
}

// finish publishes the call result and clears the in-flight slot.
func (s *Service) finish(key cacheKey, c *call, resp *Response, err error) {
	c.resp, c.err = resp, err
	s.mu.Lock()
	if s.inflight[key] == c {
		delete(s.inflight, key)
	}
	s.mu.Unlock()
	close(c.done)
}

// compute runs a bounded or odd detection — the algos without a fused
// path — on the item's trial plan (see trialPlan), and accumulates an
// amplified item's prior costs into its response. cancel is the
// executor's cooperative CancelFlag (nil when detached).
func (s *Service) compute(cancel *congest.CancelFlag, it *fuseItem) fuseOut {
	req := it.req
	seed, iterations := trialPlan(it)
	resp := newResponse(it)
	switch req.Algo {
	case AlgoBounded:
		res, err := core.DetectBoundedCycle(req.Graph, req.K, core.Options{
			Eps:           req.Eps,
			MaxIterations: iterations,
			Threshold:     req.Threshold,
			Seed:          seed,
			Workers:       s.cfg.Workers,
			Shards:        s.cfg.Shards,
			Parallel:      s.cfg.Parallel,
			Pipelined:     req.Pipelined,
			Cancel:        cancel,
			Observe:       s.engineObs,
		})
		if err != nil {
			return fuseOut{err: err}
		}
		resp.Found = res.Found
		resp.Witness = res.Witness
		resp.FoundLen = res.FoundLen
		resp.Rounds, resp.Messages, resp.Bits = res.Rounds, res.Messages, res.Bits
		resp.MaxCongestion, resp.Overflowed = res.MaxCongestion, res.Overflowed
		resp.Iterations = res.IterationsRun
	case AlgoOdd:
		res, err := lowprob.DetectOdd(req.Graph, req.K, lowprob.OddOptions{
			MaxIterations: iterations,
			Threshold:     req.Threshold,
			Seed:          seed,
			Workers:       s.cfg.Workers,
			Shards:        s.cfg.Shards,
			Parallel:      s.cfg.Parallel,
			SeedProb:      1,
			Cancel:        cancel,
			Observe:       s.engineObs,
		})
		if err != nil {
			return fuseOut{err: err}
		}
		resp.Found = res.Found
		resp.Witness = res.Witness
		if res.Found {
			resp.FoundLen = 2*req.K + 1
		}
		resp.Rounds, resp.Messages = res.Rounds, res.Messages
		resp.Iterations = res.IterationsRun
	default:
		return fuseOut{err: fmt.Errorf("service: algo %q has no unfused path", req.Algo)}
	}
	return finishAmplify(it, resp)
}

// fillEven copies an Algorithm 1 result into a response.
func fillEven(resp *Response, k int, res *core.Result) {
	resp.Found = res.Found
	resp.Witness = res.Witness
	if res.Found {
		resp.FoundLen = 2 * k
	}
	resp.Rounds, resp.Messages, resp.Bits = res.Rounds, res.Messages, res.Bits
	resp.MaxCongestion, resp.Overflowed = res.MaxCongestion, res.Overflowed
	resp.Iterations = res.IterationsRun
}

// fillDet copies a deterministic-detector result into a response.
func fillDet(resp *Response, k int, res *deterministic.Result) {
	resp.Found = res.Found
	resp.Witness = res.Witness
	if res.Found {
		resp.FoundLen = 2 * k
	}
	resp.Rounds, resp.Messages, resp.Bits = res.Rounds, res.Messages, res.Bits
	resp.MaxCongestion, resp.Overflowed = res.MaxCongestion, res.Overflowed
}

// Config returns the service configuration with defaults resolved.
func (s *Service) Config() Config {
	return s.cfg
}

// Stats snapshots the service counters.
//
// The snapshot is coherent by read order, not by a global lock: every
// request increments Requests at entry and exactly one partition
// counter (a serve path, or Errors) at exit. Reading the exit counters
// BEFORE the entry counter therefore guarantees
//
//	Requests ≥ Hits + Coalesced + Amplified + Computed + Errors
//
// in every snapshot, however many requests are mid-flight — a reader
// can never observe an exit that lacks its entry. The same ordering
// nests the error taxonomy (reason counters before Errors, which each
// failed request increments first). Reorder these reads and the
// invariant — which hammer tests and operators' dashboards rely on —
// silently breaks under load.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	entries := s.cache.len()
	s.mu.Unlock()
	rejected, shed := s.rejected.Value(), s.shed.Value()
	deadline, cancelled := s.deadlineExceeded.Value(), s.cancelled.Value()
	hits, coalesced := s.hits.Value(), s.coalesced.Value()
	amplified, computed := s.amplified.Value(), s.computed.Value()
	errs := s.errors.Value()
	requests := s.requests.Value()
	solo, fused := s.soloSessions.Value(), s.fusedSessions.Value()
	batches := s.batchesFormed.Value()
	st := Stats{
		Requests:         requests,
		Hits:             hits,
		Coalesced:        coalesced,
		Amplified:        amplified,
		Computed:         computed,
		Errors:           errs,
		Rejected:         rejected,
		Shed:             shed,
		DeadlineExceeded: deadline,
		Cancelled:        cancelled,
		Panics:           s.panics.Value(),
		MeanSessionMS:    float64(s.meanSessionNs.Load()) / 1e6,
		EngineSessions:   solo + fused,
		FusedSessions:    fused,
		SoloSessions:     solo,
		FusedRequests:    s.fusedRequests.Value(),
		BatchesFormed:    batches,
		MaxBatchSize:     s.maxBatchSize.Value(),
		CacheEntries:     entries,
		InFlight:         s.gate.InUse(),
		Queued:           s.gate.Waiting(),
	}
	if batches > 0 {
		st.MeanBatchSize = float64(s.batchSizeSum.Value()) / float64(batches)
	}
	if s.batcher != nil {
		st.BatchesSkipped = s.batcher.Skipped()
	}
	st.Mutations = s.mutations.Value()
	st.NoopMutations = s.noopMutations.Value()
	st.WarmStarts = s.warmStarts.Value()
	st.WarmHits = s.warmHits.Value()
	st.Fallbacks = s.warmFallbacks.Value()
	s.lineageMu.Lock()
	if !s.lastChild.IsZero() {
		st.LastMutationParent = s.lastParent.String()
		st.LastMutationChild = s.lastChild.String()
	}
	s.lineageMu.Unlock()
	return st
}
