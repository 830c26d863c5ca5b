// Package service is the detection-as-a-service layer: a long-running,
// concurrent front end over the repository's cycle detectors that turns
// the single-shot engine into a traffic-serving system.
//
// A Service accepts detection requests (graph + algorithm + parameters),
// admits them through a bounded FIFO worker pool (sched.Gate) so bursts
// queue instead of oversubscribing the host, coalesces concurrent
// identical requests into one computation (single-flight), and caches
// verdicts in an LRU keyed by graph.Fingerprint plus the request
// parameters. Two cache policies follow from the detector semantics:
//
//   - Deterministic detector (AlgoDet): the verdict is a pure function of
//     the graph, so entries are cacheable forever and the seed is excluded
//     from the key. Repeated requests are byte-identical cache hits.
//   - Randomized detectors (AlgoEven, AlgoBounded, AlgoOdd): a Found
//     verdict carries a re-verified witness and is therefore permanent
//     (one-sidedness makes positive results deterministic facts). A
//     not-found verdict records the trial budget it exhausted; a repeat
//     query within that budget is a pure hit, while a query asking for
//     more trials runs only the additional trials with derived seeds and
//     merges them into the entry — amplification instead of recomputation.
//
// The cache-hit path performs no engine-session work: it is a map lookup
// plus counter updates. Service.Stats exposes the request/hit/coalesce/
// amplify/engine-session counters the load harness and the S1 experiment
// assert on.
//
// Every cache miss is computed by one executor as a batch (batch.go).
// Compatible even and det misses that overlap in time are fused into
// one engine session on the disjoint union of their graphs; a miss that
// finds no other miss active has nothing to fuse with and runs at once
// as a batch of one, under its own context. Only misses that arrive
// while another miss is active wait in the sched.Batcher for
// Config.BatchLinger, so an idle service never pays the linger.
//
// The package also provides an async job registry (Submit/Job) used by
// cmd/cycleserved's /v1/jobs API, and a named-graph corpus registry so
// requests can reference pre-registered instances instead of shipping
// edge lists. See docs/ARCHITECTURE.md ("Service layer") for the request
// lifecycle and cmd/cycleload for the closed-loop load generator.
//
// Failure is typed: every post-validation error wraps one of four
// sentinels — ErrDeadline (the request's deadline expired), ErrShed
// (load shed at admission: queue overflow, or the estimated queue wait
// exceeds the remaining deadline), ErrCancelled (the caller's context
// was cancelled; the engine session stopped cooperatively at a round
// boundary), ErrInternal (a detector panic was contained) — which
// cmd/cycleserved maps onto 408/429/499/503. Deadlines compose
// earliest-wins from Request.Deadline, Config.DefaultDeadline, and
// Config.MaxDeadline; admission sheds against an EWMA of recent session
// durations; panics are fenced in the one miss executor (every batch
// size), at the batcher's dispatch, and in the job goroutine, and surface
// in Stats.Panics. DrainJobs supports graceful
// shutdown, and internal/faultpoint drives the chaos tests that pin all
// of this (see docs/ARCHITECTURE.md, "Failure domains & request
// lifecycle").
package service
