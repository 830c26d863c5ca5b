// Package deterministic implements a deterministic even-cycle detector in
// the Broadcast CONGEST model, after
//
//	Fraigniaud, Luce, Magniez, Todinca:
//	"Deterministic Even-Cycle Detection in Broadcast CONGEST"
//	(arXiv:2412.11195)
//
// and the threshold-based framework of Fraigniaud, Luce, Todinca, "On the
// Power of Threshold-Based Algorithms for Detecting Cycles in the CONGEST
// Model" (arXiv:2304.02360). It fills the deterministic column of the
// repository's detector matrix (see docs/ARCHITECTURE.md), next to the
// randomized and quantum detectors of the source paper.
//
// # Model
//
// Broadcast CONGEST restricts CONGEST: in each round a node sends one
// O(log n)-bit message to all its neighbors at once (no per-edge
// addressing). The protocol here uses only congest.Session.Broadcast —
// never Send — so it exercises exactly that model, and it draws no
// randomness at all: the transcript is a pure function of the input graph,
// bit-identical for every engine seed and with or without an arena
// (pinned by TestTranscriptInvariance and the root delivery-determinism
// suite).
//
// # Algorithm
//
// Every node is a source. In round 0 each node u broadcasts the
// walk-announcement (u, 0); a node that receives (s, h) records the key
// (s, h+1) — "a walk of length h+1 from s ends here" — with the sender as
// parent pointer, and, while h+1 < k, re-broadcasts (s, h+1) exactly once,
// pipelined one relay per round (the same queue discipline as the
// pipelined color-BFS schedule). Keys are exact walk lengths, not BFS
// distances: a source can be recorded at several lengths, which is what
// makes the detection length-exact.
//
// A node t detects a candidate C_2k when the terminal key (s, k) arrives
// from two distinct neighbors: two walks of length exactly k from s meet
// at t, i.e. a closed walk of length 2k through s and t. Walks may
// self-intersect, so after the session each candidate's two parent chains
// are reconstructed and the resulting vertex sequence is verified with
// graph.IsSimpleCycle; every distinct second parent is kept as its own
// candidate, so verification tries every recorded pairing, and only a
// verified C_2k is reported. Detection is therefore one-sided in the
// strong sense of the rest of the repository — a reported cycle is real,
// and a C_2k-free input is never rejected, here deterministically, not
// just with high probability. Completeness is not absolute: parent
// chains are first-arrival, so on chord-dense instances (mostly k ≥ 3)
// every recorded collision can reconstruct a self-intersecting walk and
// a present C_2k goes unreported; experiment D1 tabulates the realized
// detection rate next to the randomized detector's.
//
// # Threshold
//
// Congestion is pruned exactly as in Algorithm 1's Instruction 19: a node
// whose identifier set would exceed the threshold τ discards it — it stops
// accepting keys and cancels its pending relays (keys it already relayed
// remain valid walk certificates, as in the pipelined color-BFS schedule).
// The default τ = ⌈2k·n^{1-1/k}⌉ is the Θ(n^{1-1/k}) regime of the
// deterministic paper; the relay pipeline drains at most τ entries per
// node, which is what caps the round complexity at O(k + τ) =
// O(n^{1-1/k}). Result.Overflowed reports whether any node hit τ (on such
// instances a cycle may go undetected; experiment D1 sweeps the trade-off
// against the randomized detector).
//
// Per-node key sets use internal/idset (key → parent pointer), the same
// pooled flat-set layer as color-BFS, so the per-round hot path performs
// no map operations.
//
// # Memory layout
//
// A fresh protocol takes its final layout before the first round. Node
// u's walk-key table is sized for every key that can reach it, one per
// (source, length): deg(u) length-1 keys, |N(N(u)) ∖ {u}| length-2 keys
// and, at k ≥ 3, one length-3 key per source s ≠ u in a neighbor's
// length-2 set, capped at τ; its relay queue holds the keys shorter
// than k among them, and each family is carved from one slab. The
// walk-key store (internal/idset) packs a key and its parent into one
// 8-byte slot at up to ⅞ load, about 10.6 bytes a key. Walk
// collisions go to one lock-guarded candidate buffer, not one per node.
// At k ≤ 3 the sizes bound every set and queue, so a cold detection
// makes a constant number of allocations whatever n is
// (TestColdDetectAllocs), and its rounds allocate nothing: a k=2 run on
// a 20000-node high-girth graph keeps about 4.1 MB of protocol state,
// and a k=3 run on a 2000-node planted graph about 350 KB, under the
// arena's per-value cap (congest.ArenaMaxValueBytes), so a service reuses
// it. At k ≥ 4 longer walks add keys the sizes leave out: those tables
// grow and those queues reallocate mid-run, as they would in a retained
// protocol that an arena (congest.Runtime.Arena) re-lays onto another
// graph.
package deterministic
