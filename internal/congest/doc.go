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
// A broadcast is staged once per node and written to each receiver
// along the graph's CSR row at delivery; the per-edge staging Send
// needs is built on a session's first Send, so a broadcast-only
// protocol never pays for it.
//
// Simulation contract:
//
//   - One Message per directed edge per round, enforced; a second send on
//     the same edge in the same round aborts the run with an error, and
//     so does a second Broadcast, or a Send and a Broadcast, by one node
//     in one round.
//   - A Message carries a kind byte and two payload words — a constant
//     number of identifiers/counters, i.e. O(log n) bits (the host packs
//     all of that into 16 bytes; see Message). Protocols that need to
//     ship a set of identifiers must do so one message per round, which
//     is exactly how congestion becomes round complexity.
//   - A session runs on the goroutine that called Run: one handler at a
//     time, in ascending node order within a round, with a round's
//     messages delivered only after every due handler has run. A handler
//     may only touch its own node's state, send to neighbors, and
//     schedule its own future wake-ups, and its inbox is valid only
//     during the call, so execution is transcript-deterministic for a
//     fixed master seed.
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
// carries sessions across engines, re-laid onto each network, and
// changes no transcript (inbox contents and order, reports);
// per-receiver inbox order is always ascending sender. Host parallelism
// lives above the engine, in independent sessions: concurrent trials
// (internal/sched) and concurrent requests. Explicit session tags
// (RunSession) keep the per-node randomness streams — derived from
// (network seed, node, tag) — independent of scheduling, which is what
// makes concurrent trials reproducible. TestEngineMatchesMapReference
// pins the engine against a map-based reference implementation, and the
// root delivery-determinism suite pins every detector's transcript with
// and without an arena.
package congest
