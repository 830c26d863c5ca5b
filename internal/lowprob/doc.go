// Package lowprob implements the congestion-reduction step of the paper's
// quantum pipeline (Section 3.2): Algorithm 2 (randomized-color-BFS) and
// the detectors built on it, including the Section 3.4 odd-cycle base
// detector.
//
// The trade-off (Lemma 12): replacing color-BFS with randomized-color-BFS —
// each color-0 seed activates independently with probability 1/τ and the
// forwarding threshold drops to the constant 4 — turns Algorithm 1 into a
// detector with round complexity k^{O(k)} (constant in n) and one-sided
// *success* probability 1/(3τ) = Θ(1/n^{1-1/k}). The quantum layer
// (package quantum) then amplifies this small success probability
// quadratically faster than classical repetition.
//
// Determinism contract: the detectors reuse core's pooled color-BFS
// invocations and its shared color-BFS step, and run attempts as independent trials on the shared
// scheduler, with all randomness (colorings, seed activation) derived
// from the caller's seed and attempt index — results are bit-identical
// for every Parallel setting, and every reported witness is verified
// against the input graph.
package lowprob
