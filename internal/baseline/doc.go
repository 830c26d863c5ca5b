// Package baseline implements the algorithms the paper compares against in
// Table 1:
//
//   - the local-threshold detector of Censor-Hillel et al. [DISC'20]
//     (C_{2k}-freeness in O(n^{1-1/k}) rounds for k ∈ {2,3,4,5}, whose
//     technique provably does not extend to k ≥ 6 [SIROCCO'23]),
//   - a deterministic full-information k-ball detector in the spirit of
//     Korhonen–Rybicki [OPODIS'17] (Θ̃(n) rounds on bounded-degree
//     graphs; the sublinear deterministic detector of arXiv:2412.11195
//     lives in internal/deterministic),
//   - the round-budget shape of Eden et al. [DISC'19]
//     (Õ(n^{1-2/(k²-2k+4)}) for even k ≥ 4, Õ(n^{1-2/(k²-k+2)}) for odd
//     k ≥ 3), used as the crossover curve in experiment E2 (the analytic
//     budget only: the row's curve is its budget, see the substitution
//     matrix in docs/ARCHITECTURE.md).
//
// Pooling/determinism contract: the detectors run on the shared engine and
// trial scheduler under the same rules as internal/core — per-node state
// only, randomness derived from (seed, attempt index) via sched.Tag, and
// the k-ball baseline's per-node edge sets use internal/idset with TTL
// upserts. Results are bit-identical for every Workers, ParallelThreshold
// and Parallel setting; reported witnesses are verified against the input
// graph.
package baseline
