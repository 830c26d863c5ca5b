// Package core implements the paper's primary contribution: Algorithm 1
// (deciding C_{2k}-freeness with a global congestion threshold, Theorem 1),
// its color-BFS-with-threshold subroutine in both the paper's batch
// schedule and a pipelined variant, the construction of the vertex sets U,
// S and W (Instructions 1–5), witness extraction, the listing and
// local-detection variants of Section 1.2 (batches of one of the same
// Algorithm 1 driver as detection), the bounded-length (F_{2k})
// detector of Section 3.5, and the Density Lemma machinery (Lemmas 4–7,
// see density.go).
//
// One step, one copy: every coloring detector — Algorithm 1, bounded,
// and lowprob's odd and baseline's local-threshold detectors through
// ColorBFSPool.Step — runs its color-BFS invocations through one helper
// that acquires, runs under the caller's session tag, reports costs,
// verifies each witness and releases.
//
// Pooling contract: ColorBFS invocations are reusable via ColorBFSPool —
// an acquired instance's identifier sets (internal/idset), forwarding
// queues and detection buffers retain their capacity across invocations,
// so the steady state of the 3·K color-BFS calls of one detection run
// allocates almost nothing. After Release, nothing read from the instance
// (Detections, parent pointers, witnesses) may be retained; callers that
// need an instance to stay readable (witness notification walks its parent
// pointers) keep it and skip the Release.
//
// Determinism contract: all randomness derives from the caller's seed via
// sched.Tag (per-iteration coloring streams, per-session engine tags), and
// each invocation's detections are canonically sorted after its sessions
// — so every verdict, witness and cost counter is bit-identical for any
// Parallel setting. One-sidedness is enforced mechanically: every detection's
// witness is re-verified against the input graph, in that shared step,
// before it is reported.
package core
