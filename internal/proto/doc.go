// Package proto provides the reusable distributed building blocks that the
// paper's algorithms compose: BFS spanning-tree construction and
// convergecast, as CONGEST handlers on the simulator in package congest.
//
// These are the O(D)-round primitives of Theorem 3's Setup procedure: the
// quantum detector (internal/quantum) builds a BFS tree from node 0,
// takes twice its depth as the diameter bound, and converge-casts the
// existence of a rejecting node to the root.
//
// Determinism contract: the handlers draw no randomness (ties break by
// identifier), so for a fixed topology their transcripts are identical
// across seeds and worker counts — the same guarantee the detectors built
// on top of them inherit.
package proto
