package evencycle

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/service"
)

// Service is a long-running, concurrent detection front end: requests are
// admitted through a bounded FIFO worker pool, concurrent identical
// requests coalesce into one computation, and verdicts are cached in an
// LRU keyed by the graph's stable fingerprint plus the request
// parameters. Deterministic-mode verdicts are pure functions of the graph
// and cache forever; randomized verdicts record the trial budget they
// exhausted, so a repeat query within budget is a pure hit and a larger
// budget amplifies the entry (runs only the missing trials) instead of
// recomputing. Construct with NewService; safe for concurrent use. See
// docs/ARCHITECTURE.md ("Service layer") and cmd/cycleserved for the
// HTTP surface.
type Service struct {
	svc        *service.Service
	iterations int
}

// ServiceOption tunes a Service at construction.
type ServiceOption func(*serviceConfig)

type serviceConfig struct {
	cfg service.Config
	// iterations is the default trial budget applied when a detection call
	// does not carry WithIterations.
	iterations int
}

// WithServiceSlots bounds the number of detections computing at once (the
// worker pool size; default GOMAXPROCS). Queued requests are admitted
// FIFO.
func WithServiceSlots(slots int) ServiceOption {
	return func(c *serviceConfig) { c.cfg.Slots = slots }
}

// WithServiceQueue bounds the admission queue; requests beyond it fail
// fast with ErrServiceOverloaded. Default 1024; negative is unbounded.
func WithServiceQueue(depth int) ServiceOption {
	return func(c *serviceConfig) { c.cfg.MaxQueue = depth }
}

// WithServiceCache sets the verdict-cache capacity in entries (default
// 1024).
func WithServiceCache(entries int) ServiceOption {
	return func(c *serviceConfig) { c.cfg.CacheEntries = entries }
}

// WithServiceParallel sets the trial parallelism of bounded and odd
// detections (matching WithParallel on the direct detection calls: 0/1
// sequential, negative GOMAXPROCS). Even and deterministic detections run
// on one fused engine session and ignore it; results are identical either
// way.
func WithServiceParallel(p int) ServiceOption {
	return func(c *serviceConfig) { c.cfg.Parallel = p }
}

// WithServiceWorkers sets the engine goroutine pool per session (matching
// WithWorkers).
func WithServiceWorkers(w int) ServiceOption {
	return func(c *serviceConfig) { c.cfg.Workers = w }
}

// WithServiceBatch caps the fused miss-path batch: up to size compatible
// cache misses (same algo, k and knobs — different graphs) share one
// engine session on the disjoint union of their graphs. Per-graph
// verdicts, witnesses and costs are identical to solo computation; only
// the session count drops. Default 8; 1 disables batching.
func WithServiceBatch(size int) ServiceOption {
	return func(c *serviceConfig) { c.cfg.BatchSize = size }
}

// WithServiceIterations sets the default trial budget for randomized
// detections that do not carry an explicit WithIterations. Service
// requests must state a finite budget (the faithful counts are
// astronomically large for k ≥ 3); the default is 32.
func WithServiceIterations(iters int) ServiceOption {
	return func(c *serviceConfig) { c.iterations = iters }
}

// ErrServiceOverloaded is returned when the service's admission queue is
// full.
var ErrServiceOverloaded = service.ErrOverloaded

// ServiceStats is a snapshot of the service counters: the request total,
// its partition into serve paths (hits, coalesced, amplified, computed),
// error counts, and the engine-session count that cache hits save.
type ServiceStats = service.Stats

// ServiceSource identifies how a request was served: "cache",
// "coalesced", "amplified" or "computed".
type ServiceSource = service.Source

// NewService constructs the detection service.
func NewService(opts ...ServiceOption) *Service {
	c := serviceConfig{iterations: 32}
	for _, o := range opts {
		o(&c)
	}
	return &Service{svc: service.New(c.cfg), iterations: c.iterations}
}

// request maps facade options onto a service request.
func (s *Service) request(g *Graph, algo service.Algo, k int, opts []Option) *service.Request {
	c := buildConfig(opts)
	iters := c.iterations
	if iters <= 0 {
		iters = s.iterations
	}
	return &service.Request{
		Graph:      g,
		Algo:       algo,
		K:          k,
		Seed:       c.seed,
		Iterations: iters,
		Threshold:  c.threshold,
		Eps:        c.eps,
		Pipelined:  c.pipelined,
	}
}

// do executes the request and returns a copy of the response's verdict.
// The witness is cloned: the service's Response (and its witness slice)
// is shared by every cache hit on the key, while the direct Detect path
// hands each caller a fresh slice — a caller mutating Result.Witness
// must not corrupt the cache entry behind everyone else's hits.
func (s *Service) do(ctx context.Context, req *service.Request) (*Result, ServiceSource, error) {
	resp, src, err := s.svc.Do(ctx, req)
	if err != nil {
		return nil, src, fmt.Errorf("evencycle: %w", err)
	}
	v := resp.Verdict
	v.Witness = slices.Clone(v.Witness)
	return &v, src, nil
}

// Detect serves a C_{2k}-freeness decision (Algorithm 1) through the
// cache and worker pool. The options mirror the package-level Detect;
// WithIterations sets the trial budget recorded in the cache entry
// (default: the service's WithServiceIterations). The returned
// ServiceSource says whether the verdict was computed, amplified, or
// served from cache.
func (s *Service) Detect(ctx context.Context, g *Graph, k int, opts ...Option) (*Result, ServiceSource, error) {
	return s.do(ctx, s.request(g, service.AlgoEven, k, opts))
}

// DetectBounded serves an F_{2k}-freeness decision (any cycle of length
// ≤ 2k) through the cache and worker pool.
func (s *Service) DetectBounded(ctx context.Context, g *Graph, k int, opts ...Option) (*Result, ServiceSource, error) {
	return s.do(ctx, s.request(g, service.AlgoBounded, k, opts))
}

// DetectOdd serves a C_{2k+1}-freeness decision through the cache and
// worker pool.
func (s *Service) DetectOdd(ctx context.Context, g *Graph, k int, opts ...Option) (*Result, ServiceSource, error) {
	return s.do(ctx, s.request(g, service.AlgoOdd, k, opts))
}

// DetectDeterministic serves the deterministic broadcast-CONGEST verdict
// through the cache: since the verdict is a pure function of the graph
// (and k, τ), entries never expire and repeated calls are byte-identical
// cache hits regardless of seed or parallelism options.
func (s *Service) DetectDeterministic(ctx context.Context, g *Graph, k int, opts ...Option) (*Result, ServiceSource, error) {
	return s.do(ctx, s.request(g, service.AlgoDet, k, opts))
}

// Stats snapshots the service counters.
func (s *Service) Stats() ServiceStats { return s.svc.Stats() }

// RegisterGraph adds a named graph to the service's corpus registry (used
// by the HTTP server so requests can reference instances by name instead
// of shipping edge lists).
func (s *Service) RegisterGraph(name string, g *Graph) error {
	return s.svc.RegisterGraph(name, g)
}

// NamedGraph resolves a corpus name registered with RegisterGraph.
func (s *Service) NamedGraph(name string) (*Graph, bool) { return s.svc.NamedGraph(name) }

// GraphNames lists the registered corpus names in sorted order.
func (s *Service) GraphNames() []string { return s.svc.GraphNames() }

// Fingerprint returns the stable 128-bit structural hash of g — the
// cache key component identifying the graph. It is invariant under edge
// insertion order and identifies the graph across processes and runs.
func Fingerprint(g *Graph) string { return g.Fingerprint().String() }
