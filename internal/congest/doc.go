// Package congest implements the CONGEST model of distributed computing as
// a deterministic, round-synchronous simulator. It is the bottom layer of
// the repository: every detector — classical (internal/core), low-probability
// (internal/lowprob), quantum-amplified (internal/quantum), deterministic
// broadcast (internal/deterministic) and the baselines — executes as a
// Handler on this engine. docs/ARCHITECTURE.md describes the delivery
// pipeline in detail.
//
// The model (Peleg 2000, as used by the paper): the network is a simple
// connected n-vertex graph; one computing node per vertex; computation
// proceeds in lockstep rounds; in each round every node may send one
// O(log n)-bit message to each of its neighbors, receives the messages sent
// to it, and performs arbitrary local computation. Nodes know their own
// O(log n)-bit identifier, their incident edges, and (as in the paper) the
// number n of vertices. Session.Broadcast additionally models the Broadcast
// CONGEST restriction (one message per round to all neighbors at once);
// it is transcript-equivalent to a Send loop over the adjacency list.
//
// Simulation contract:
//
//   - One Message per directed edge per round, enforced; a second send on
//     the same edge in the same round aborts the run with an error.
//   - A Message carries a kind byte and two payload words — a constant
//     number of identifiers/counters, i.e. O(log n) bits (the host packs
//     all of that into 16 bytes; see Message). Protocols that need to
//     ship a set of identifiers must do so one message per round, which
//     is exactly how congestion becomes round complexity.
//   - Handlers for distinct nodes run concurrently (a goroutine worker pool
//     with a barrier per round maps goroutines onto CONGEST rounds); a
//     handler may only touch its own node's state, send to neighbors, and
//     schedule its own future wake-ups, so execution is transcript-
//     deterministic for a fixed master seed.
//   - Rounds in which no node is active are not simulated (the clock
//     fast-forwards to the next scheduled wake-up) but they still elapse:
//     the reported round count is the CONGEST time of the execution, i.e.
//     the span from round 0 to the last round with activity. This is the
//     quantity the paper's theorems bound.
//
// Pooling and determinism contract: an Engine is safe for concurrent
// RunSession calls — all mutable per-run state lives in pooled Session
// objects whose buffers are stamp-guarded or dirty-list-cleared, so
// back-to-back sessions allocate ~nothing; an Arena (Runtime.Arena)
// carries sessions across engines, re-laid onto each network.
// Transcripts (inbox contents and order, reports) are bit-identical for
// every Workers and ParallelThreshold setting (the parallel delivery
// phase splits receivers into one shard per worker, at least 64 nodes
// each); per-receiver inbox order is always ascending sender.
// ParallelThreshold is counted in messages: a round's handler phase goes
// to the worker pool only when its due handlers plus their inbox
// messages reach it, its delivery phase only when its staged messages do
// (default 24576; see Runtime). Explicit session tags (RunSession) keep
// the per-node randomness streams — derived from (network seed, node,
// tag) — independent of scheduling, which is what makes concurrent
// trials reproducible. TestEngineMatchesMapReference pins the engine
// against a map-based reference implementation, and the root
// delivery-determinism suite pins every detector's transcript across
// engine configurations under -race.
package congest
