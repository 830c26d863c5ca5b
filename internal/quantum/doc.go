// Package quantum implements the paper's quantum CONGEST framework as a
// classically-simulated layer with faithful round accounting:
//
//   - Lemma 8 (distributed quantum search / Grover) and Theorem 3
//     (distributed quantum Monte-Carlo amplification): given a distributed
//     one-sided Monte-Carlo algorithm A with success probability ε and
//     round complexity T, there is a quantum algorithm with error δ and
//     round complexity polylog(1/δ)·(1/√ε)·(D + T).
//   - Lemma 13 / Section 3.4 / Section 3.5: the quantum detectors for
//     C_{2k}, C_{2k+1} and F_{2k} obtained by amplifying the
//     congestion-reduced detectors of package lowprob inside the
//     diameter-reduced components of package decomp.
//
// Substitution (documented in docs/ARCHITECTURE.md): a classical machine
// cannot run Grover natively. The simulation preserves exactly the two
// properties the paper's analysis uses — (1) outputs lie in the support of
// the Setup procedure (one-sidedness: a reported cycle is always real and
// carries a verified witness), and (2) if the per-run success probability
// is ≥ ε, the amplified run succeeds with probability ≥ 1-δ (realized by
// classical repetition of Setup) — while the *round ledger* charges the
// quantum cost with T_setup measured on the simulator, not assumed from
// the theorem.
//
// Determinism contract: amplification attempts are independent trials on
// the shared scheduler with per-attempt seeds derived via sched.Tag, and
// per-component seeds derive from the decomposition's canonical component
// order — so the verdict, witness and the whole round ledger are
// bit-identical for every Parallel setting.
package quantum
