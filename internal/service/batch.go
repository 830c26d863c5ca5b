package service

import (
	"context"
	"fmt"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/deterministic"
	"repro/internal/faultpoint"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
)

// The miss executor. Every cache miss is computed by execBatch as part of
// a batch: misses that arrive while another miss is active and whose
// parameters are compatible (same algo / k / threshold / ε / schedule —
// everything but the graph, seed and budget) are collected by a
// sched.Batcher and run as ONE fused engine session on the disjoint
// union of their graphs (core.DetectEvenCycleFused /
// deterministic.DetectMulti); every other miss, including one that finds
// the service idle, is a batch of one. The fused run is transcript-equivalent per
// component to a solo run, so each component's verdict is cached under
// its own fingerprint exactly as if it had been computed alone: a batch
// of B misses seeds B cache entries for the price of one session.

// fusable reports whether the algo has a fused execution path. The
// bounded-length and odd detectors have none — their internal structure
// (length pairs, repetition schedule) has no fused variant — so their
// misses always run as direct batches of one.
func fusable(a Algo) bool { return a == AlgoEven || a == AlgoDet }

// compatKey is the batch compatibility key: requests agreeing on it may
// share one fused session. Graph, seed and trial budget are deliberately
// absent — they are per-component inputs of the fused run.
type compatKey struct {
	algo      Algo
	k         int
	threshold int
	eps       float64
	pipelined bool
}

func compatFor(req *Request) compatKey {
	ck := compatKey{
		algo:      req.Algo,
		k:         req.K,
		threshold: req.Threshold,
		eps:       req.Eps,
		pipelined: req.Pipelined,
	}
	if req.Algo == AlgoDet {
		ck.eps = 0
		ck.pipelined = false
	}
	return ck
}

// fuseItem is one miss-path request travelling through the executor.
type fuseItem struct {
	req   *Request
	fp    graph.Fingerprint
	key   cacheKey
	prior *entry
	// warm marks mutation-time work with no request behind it (the
	// localization fallback): the executor neither installs its verdict
	// nor stamps its stages. warmChild installs it, with the warm mark,
	// unless a request has claimed or cached the key meanwhile.
	warm bool
	// enqueued is when the item entered the batcher, set only on timed
	// requests (observed service or per-request trace); the executor
	// measures the linger stage against it. Zero when untimed or direct.
	enqueued time.Time
}

// fuseOut is one item's outcome. Item-level errors ride here rather than
// on the batch, so one pathological component cannot poison its
// batchmates' verdicts.
type fuseOut struct {
	resp      *Response
	amplified bool
	err       error
}

// fuseSeedSalt derives the seed a randomized detector actually runs with
// from (request seed, graph fingerprint). Mixing the fingerprint in
// decorrelates the per-component randomness of batchmates that share a
// request seed, and since every batch size uses the same derivation,
// cached verdicts stay serve-path-independent: the same request computes
// the same response whatever batch it ran in.
const fuseSeedSalt = 0xf5eed

// runSeed is the seed the detector runs with for this request.
func runSeed(req *Request, fp graph.Fingerprint) uint64 {
	if !req.Algo.randomized() {
		return 0
	}
	return sched.Tag(req.Seed, fuseSeedSalt, fp[0], fp[1])
}

// amplifySalt separates the derived seeds of amplification runs from
// every other consumer of sched.Tag.
const amplifySalt = 0x5e2f1ce

// trialPlan is the (seed, trial budget) an item's randomized detector
// runs with. When the item amplifies a cached not-found entry with budget
// B < req.Iterations, only the missing req.Iterations-B trials run, with
// a seed derived from (run seed, B) so the accumulated trial history
// never repeats a coloring.
func trialPlan(it *fuseItem) (seed uint64, iterations int) {
	seed, iterations = runSeed(it.req, it.fp), it.req.Iterations
	if amplifies(it) {
		iterations -= it.prior.budget
		seed = sched.Tag(seed, amplifySalt, uint64(it.prior.budget))
	}
	return seed, iterations
}

// execBatch is the one miss executor. dispatch calls it directly, with
// the request's context, for a batch of one; the batcher calls it with a
// detached context for a fused batch. It holds ONE admission slot for
// the whole batch (B requests, one session's worth of pool pressure),
// acquired under ctx.
//
// ctx also arms the engine's cooperative CancelFlag, polled at round
// boundaries: an abandoned or timed-out direct request stops mid-session
// with congest.ErrCanceled (classified by the caller) instead of running
// to quiescence. A batcher batch runs under a context with a nil Done
// channel, which arms nothing: a batch that formed always runs to
// completion, even if every waiter has gone away, because its verdicts
// are cached.
func (s *Service) execBatch(ctx context.Context, ck compatKey, items []*fuseItem) (outs []fuseOut, err error) {
	// The batch is timed when the service observes or any rider opted
	// into a trace; every timed rider then gets the shared stage
	// durations (queue wait, engine, cache install) stamped into its
	// trace, plus the linger it individually accrued in the batcher.
	timed := s.observe
	for _, it := range items {
		timed = timed || it.req.Trace != nil
	}
	var tq time.Time
	if timed {
		tq = time.Now()
	}
	if err := s.gate.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.gate.Release()
	start := time.Now()
	// The panic fence: a detector or batch-leader crash (real or
	// injected) fails the whole batch with ErrInternal instead of
	// unwinding with in-flight keys still registered — which would hang
	// every coalesced follower forever. The deferred Release above still
	// runs, and since the cache install below was never reached, no
	// poisoned entry exists.
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			outs, err = nil, fmt.Errorf("%w: detector panicked: %v", ErrInternal, r)
		}
	}()
	if faultpoint.Enabled() {
		faultpoint.Crash(faultpoint.BatchLeaderCrash)
		faultpoint.Crash(faultpoint.DetectorPanic)
	}
	var cancel *congest.CancelFlag
	if ctx.Done() != nil {
		cancel = &congest.CancelFlag{}
		defer congest.WatchContext(ctx, cancel)()
	}

	outs = s.run(cancel, ck, items)
	engineDur := time.Since(start)

	// Cache every successful request verdict under its own fingerprint —
	// here, not in Do, so verdicts of waiters that gave up are kept too.
	var tInstall time.Time
	if timed {
		tInstall = time.Now()
	}
	ran := false
	s.mu.Lock()
	for i, it := range items {
		if outs[i].err == nil {
			ran = true
			if !it.warm {
				s.cache.put(it.key, &entry{resp: outs[i].resp, budget: it.req.Iterations})
			}
		}
	}
	s.mu.Unlock()
	if ran {
		s.noteSessionDuration(engineDur)
	}
	if timed {
		// noteStage tolerates a nil trace (histogram-only) on an armed
		// service; an untraced rider of a disarmed service is skipped, and
		// so is warm work, which no request spent.
		install := time.Since(tInstall)
		for _, it := range items {
			if it.warm || !s.observe && it.req.Trace == nil {
				continue
			}
			if !it.enqueued.IsZero() {
				s.noteStage(it.req.Trace, obs.StageBatchLinger, tq.Sub(it.enqueued))
			}
			s.noteStage(it.req.Trace, obs.StageQueueWait, start.Sub(tq))
			s.noteStage(it.req.Trace, obs.StageEngine, engineDur)
			s.noteStage(it.req.Trace, obs.StageCacheInstall, install)
		}
	}
	return outs, nil
}

// run computes the items' verdicts in one engine session and counts it:
// a batch of one in solo_sessions, a larger one in fused_sessions and
// fused_requests.
func (s *Service) run(cancel *congest.CancelFlag, ck compatKey, items []*fuseItem) []fuseOut {
	if len(items) == 1 {
		out := s.runOne(cancel, ck, items[0])
		if out.err == nil {
			s.soloSessions.Add(1)
		}
		return []fuseOut{out}
	}
	outs, err := s.runFused(cancel, ck, items)
	if err != nil {
		// A component the fused path cannot represent (e.g. a graph too
		// small to parameterize) fails the whole call before any engine
		// work; re-running each item as a batch of one localizes the
		// error to its item.
		outs = make([]fuseOut, len(items))
		for i := range items {
			outs[i] = s.run(cancel, ck, items[i:i+1])[0]
		}
		return outs
	}
	s.fusedSessions.Add(1)
	s.fusedRequests.Add(int64(len(items)))
	return outs
}

// runOne computes a batch of one: through the fused driver for even/det
// (a fused batch of one is pinned equal to a solo run), through compute
// for the unfusable algos, or through computeHook when a test set one.
func (s *Service) runOne(cancel *congest.CancelFlag, ck compatKey, it *fuseItem) fuseOut {
	switch {
	case s.computeHook != nil:
		resp, amplified, err := s.computeHook(it.req, it.fp, it.prior)
		return fuseOut{resp: resp, amplified: amplified, err: err}
	case fusable(ck.algo):
		outs, err := s.runFused(cancel, ck, []*fuseItem{it})
		if err != nil {
			return fuseOut{err: err}
		}
		return outs[0]
	default:
		return s.compute(cancel, it)
	}
}

// runFused maps a batch of even or det items onto one
// core.DetectEvenCycleFused or deterministic.DetectMulti call.
// Amplification composes per item: an even component with a cached
// not-found budget runs only its missing trials (trialPlan). The
// deterministic detector is seedless and budget-free, so its components
// carry only graphs.
func (s *Service) runFused(cancel *congest.CancelFlag, ck compatKey, items []*fuseItem) ([]fuseOut, error) {
	B := len(items)
	outs := make([]fuseOut, B)
	switch ck.algo {
	case AlgoEven:
		fitems := make([]core.FusedItem, B)
		for i, it := range items {
			seed, iterations := trialPlan(it)
			fitems[i] = core.FusedItem{Graph: it.req.Graph, Seed: seed, Iterations: iterations}
		}
		results, err := core.DetectEvenCycleFused(fitems, ck.k, core.Options{
			Eps:       ck.eps,
			Threshold: ck.threshold,
			Pipelined: ck.pipelined,
			Workers:   s.cfg.Workers,
			Shards:    s.cfg.Shards,
			Cancel:    cancel,
			Observe:   s.engineObs,
		})
		if err != nil {
			return nil, err
		}
		for i, it := range items {
			resp := newResponse(it)
			fillEven(resp, ck.k, results[i])
			outs[i] = finishAmplify(it, resp)
		}
	case AlgoDet:
		gs := make([]*graph.Graph, B)
		for i, it := range items {
			gs[i] = it.req.Graph
		}
		results, err := deterministic.DetectMulti(gs, ck.k, deterministic.Options{
			Threshold: ck.threshold,
			Workers:   s.cfg.Workers,
			Shards:    s.cfg.Shards,
			Cancel:    cancel,
			Observe:   s.engineObs,
		})
		if err != nil {
			return nil, err
		}
		for i, it := range items {
			resp := newResponse(it)
			fillDet(resp, ck.k, results[i])
			outs[i] = fuseOut{resp: resp}
		}
	default:
		return nil, fmt.Errorf("service: algo %q has no fused path", ck.algo)
	}
	return outs, nil
}

// newResponse is the item's response before the detector fills it in.
func newResponse(it *fuseItem) *Response {
	return &Response{Algo: it.req.Algo, K: it.req.K, Fingerprint: it.fp.String()}
}

// amplifies reports whether the item extends a cached not-found verdict
// instead of computing from scratch.
func amplifies(it *fuseItem) bool {
	return it.prior != nil && !it.prior.resp.Found && it.req.Algo.randomized()
}

// finishAmplify folds the prior entry's accumulated history into an
// amplifying item's response, so it reports the full budget the verdict
// rests on.
func finishAmplify(it *fuseItem, resp *Response) fuseOut {
	if !amplifies(it) {
		return fuseOut{resp: resp}
	}
	p := it.prior.resp
	resp.Rounds += p.Rounds
	resp.Messages += p.Messages
	resp.Bits += p.Bits
	resp.MaxCongestion = max(resp.MaxCongestion, p.MaxCongestion)
	resp.Overflowed = resp.Overflowed || p.Overflowed
	resp.Iterations += p.Iterations
	return fuseOut{resp: resp, amplified: true}
}
