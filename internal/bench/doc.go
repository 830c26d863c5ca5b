// Package bench is the experiment harness that regenerates the paper's
// Table 1 rows and Figure 1 empirically: parameter sweeps over n, log–log
// slope fitting against the theoretical exponents, and table rendering as
// aligned text, CSV, or markdown. The registry (All) spans the scaling
// experiments E1–E10, the ablations A1–A4, and D1, which pits the
// deterministic broadcast detector (internal/deterministic) against the
// randomized Algorithm 1. `cmd/benchtab -quick -md all` regenerates
// EXPERIMENTS.md from the registry; CI checks the committed file matches.
//
// Determinism contract: experiment tables are a pure function of
// (Config.Seed, Quick) — sweeps run their trials on the shared scheduler
// (internal/sched), so Workers and Parallel change wall-clock time but
// never a single cell of a rendered table. Wall-clock speed is not this
// package's business: it is measured by the `go test -bench` benchmarks
// beside the code they time and, end to end, by benchmark/.
package bench
