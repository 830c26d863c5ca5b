// Package evencycle is a Go implementation of
//
//	Fraigniaud, Luce, Magniez, Todinca:
//	"Even-Cycle Detection in the Randomized and Quantum CONGEST Model"
//	(PODC 2024, arXiv:2402.12018)
//
// It decides C_{2k}-freeness in the CONGEST model of distributed computing
// in O(n^{1-1/k}) rounds (Theorem 1, via colored BFS explorations with a
// global congestion threshold), and — on a classically-simulated quantum
// round ledger — in Õ(n^{1/2-1/2k}) rounds (Theorem 2, via
// congestion-reduced explorations amplified by distributed quantum
// Monte-Carlo amplification inside diameter-reduced components). Odd
// cycles (Θ̃(√n) quantum) and bounded-length families
// F_{2k} = {C_ℓ | 3 ≤ ℓ ≤ 2k} are covered as well, and
// DetectDeterministic adds the same authors' deterministic broadcast-
// CONGEST detector (arXiv:2412.11195), whose verdict uses no randomness
// at all.
//
// Every detector is one-sided: when it reports a cycle, the cycle is real
// and returned as a witness that has been re-verified against the input
// graph; a C-free input is never rejected.
//
// The package is a facade over the internal engine; see
// docs/ARCHITECTURE.md for the system inventory, EXPERIMENTS.md for the
// reproduced experiment tables, and the examples/ directory for runnable
// programs.
package evencycle

import (
	"fmt"
	"io"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/deterministic"
	"repro/internal/graph"
	"repro/internal/lowprob"
	"repro/internal/quantum"
)

// Graph is an immutable simple undirected graph (vertices 0..N-1).
type Graph = graph.Graph

// NodeID identifies a vertex.
type NodeID = graph.NodeID

// NewGraph builds a graph on n vertices from an edge list; self-loops and
// duplicates are dropped, out-of-range endpoints grow the vertex set.
func NewGraph(n int, edges [][2]NodeID) *Graph {
	return graph.FromEdges(n, edges)
}

// ReadGraph parses the "n m" + "u v" edge-list format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteGraph writes the edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// RandomGraph samples an Erdős–Rényi G(n,m) graph.
func RandomGraph(n, m int, seed uint64) *Graph {
	return graph.Gnm(n, m, graph.NewRand(seed))
}

// HighGirthGraph returns a graph with girth > minGirth — a guaranteed
// C_ℓ-free instance for every ℓ ≤ minGirth.
func HighGirthGraph(n, m, minGirth int, seed uint64) *Graph {
	return graph.HighGirth(n, m, minGirth, graph.NewRand(seed))
}

// WithPlantedCycle returns host plus a planted simple cycle of length L
// and the cycle's vertices.
func WithPlantedCycle(host *Graph, L int, seed uint64) (*Graph, []NodeID, error) {
	return graph.PlantCycle(host, L, graph.NewRand(seed))
}

// VerifyCycle checks that verts is a simple cycle of length len(verts)
// in g. All witnesses returned by this package already pass it.
func VerifyCycle(g *Graph, verts []NodeID) error {
	return graph.IsSimpleCycle(g, verts, len(verts))
}

// Option tunes a detection run.
type Option func(*config)

type config struct {
	eps        float64
	iterations int
	seed       uint64
	parallel   int
	pipelined  bool
	maxSims    int
	delta      float64
	threshold  int
}

// WithError sets the one-sided error probability ε (default 1/3).
func WithError(eps float64) Option { return func(c *config) { c.eps = eps } }

// WithIterations overrides the number of coloring repetitions (default:
// the paper's ε̂(2k)^{2k}, which is constant in n but very large for
// k ≥ 3 — long-running; see docs/ARCHITECTURE.md).
func WithIterations(k int) Option { return func(c *config) { c.iterations = k } }

// WithSeed fixes the master random seed (runs are reproducible given the
// graph and the seed).
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithThreshold overrides the congestion threshold τ: the per-node
// identifier cap of the classical detectors (Instruction 19 of
// Algorithm 1; the faithful Θ(n^{1-1/k}) value when unset) and of
// DetectDeterministic. Lower thresholds trade detection completeness for
// congestion — the ablation experiments sweep exactly this.
func WithThreshold(tau int) Option { return func(c *config) { c.threshold = tau } }

// WithParallel sets how many independent trials (coloring iterations, or
// amplification attempts in the quantum detectors) run concurrently on
// the shared trial scheduler: 0 or 1 sequential, negative GOMAXPROCS.
// Results are deterministic for a fixed seed regardless of this setting.
func WithParallel(p int) Option { return func(c *config) { c.parallel = p } }

// WithPipelinedSchedule selects the pipelined color-BFS schedule instead
// of the paper's batch schedule (same guarantees, different constants).
func WithPipelinedSchedule() Option { return func(c *config) { c.pipelined = true } }

// WithSimulationBudget caps the classical simulations realizing the
// quantum amplification semantics (quantum detectors only; the round
// ledger is unaffected).
func WithSimulationBudget(sims int) Option { return func(c *config) { c.maxSims = sims } }

// WithQuantumError sets the quantum target error δ (default 1/n²).
func WithQuantumError(delta float64) Option { return func(c *config) { c.delta = delta } }

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Costs is the CONGEST cost record of a classical run: executed rounds,
// messages, the model-level bits those messages consumed, the largest
// identifier set any node accumulated, and whether some node hit the
// congestion threshold τ and discarded its set. Overflow can cost
// detections, never fabricate one.
type Costs = congest.Costs

// Result reports a classical detection run: Found, a verified Witness of
// length FoundLen, the run's CONGEST Costs and the Iterations executed
// (0 for the deterministic detector, which runs a single session). Every
// detector returning a Result sets all of Costs, congestion included.
type Result = congest.Verdict

// Detect decides C_{2k}-freeness on g with the paper's classical
// Algorithm 1 (Theorem 1): one-sided error, O(n^{1-1/k}) rounds.
func Detect(g *Graph, k int, opts ...Option) (*Result, error) {
	c := buildConfig(opts)
	res, err := core.DetectEvenCycle(g, k, core.Options{
		Eps:           c.eps,
		MaxIterations: c.iterations,
		Threshold:     c.threshold,
		Seed:          c.seed,
		Parallel:      c.parallel,
		Pipelined:     c.pipelined,
	})
	if err != nil {
		return nil, fmt.Errorf("evencycle: %w", err)
	}
	return &res.Verdict, nil
}

// DetectBounded decides F_{2k}-freeness (any cycle of length ≤ 2k,
// Section 3.5's classical base algorithm).
func DetectBounded(g *Graph, k int, opts ...Option) (*Result, error) {
	c := buildConfig(opts)
	res, err := core.DetectBoundedCycle(g, k, core.Options{
		Eps:           c.eps,
		MaxIterations: c.iterations,
		Threshold:     c.threshold,
		Seed:          c.seed,
		Parallel:      c.parallel,
		Pipelined:     c.pipelined,
	})
	if err != nil {
		return nil, fmt.Errorf("evencycle: %w", err)
	}
	return &res.Verdict, nil
}

// DetectOdd decides C_{2k+1}-freeness with the Section 3.4 randomized
// base algorithm (classically repeated; see DetectOddQuantum for the
// amplified version).
func DetectOdd(g *Graph, k int, opts ...Option) (*Result, error) {
	c := buildConfig(opts)
	res, err := lowprob.DetectOdd(g, k, lowprob.OddOptions{
		MaxIterations: c.iterations,
		Seed:          c.seed,
		Parallel:      c.parallel,
		SeedProb:      1, // classical mode: every color-0 node participates
	})
	if err != nil {
		return nil, fmt.Errorf("evencycle: %w", err)
	}
	return &res.Verdict, nil
}

// ListCycles runs the listing variant (Section 1.2 of the paper): all
// iterations execute and every distinct C_{2k} discovered (up to rotation
// and reflection) is returned in canonical form, each verified against g.
// With the faithful iteration count, every copy of C_{2k} is listed with
// probability ≥ 1-ε.
func ListCycles(g *Graph, k int, opts ...Option) ([][]NodeID, error) {
	c := buildConfig(opts)
	res, err := core.ListEvenCycles(g, k, core.Options{
		Eps:           c.eps,
		MaxIterations: c.iterations,
		Threshold:     c.threshold,
		Seed:          c.seed,
		Parallel:      c.parallel,
		Pipelined:     c.pipelined,
	})
	if err != nil {
		return nil, fmt.Errorf("evencycle: %w", err)
	}
	return res.Cycles, nil
}

// LocalDetection is the local-detection output (Section 1.2): the usual
// result plus the full set of rejecting nodes — exactly the members of the
// detected cycle, informed by a Θ(k)-round notification protocol.
type LocalDetection struct {
	Result
	// Rejecting lists every node that outputs reject.
	Rejecting []NodeID
}

// DetectLocal decides C_{2k}-freeness and, on detection, upgrades the
// single rejecting node to the local-detection output: every member of the
// discovered cycle rejects.
func DetectLocal(g *Graph, k int, opts ...Option) (*LocalDetection, error) {
	c := buildConfig(opts)
	res, err := core.DetectEvenCycleLocal(g, k, core.Options{
		Eps:           c.eps,
		MaxIterations: c.iterations,
		Threshold:     c.threshold,
		Seed:          c.seed,
		Parallel:      c.parallel,
		Pipelined:     c.pipelined,
	})
	if err != nil {
		return nil, fmt.Errorf("evencycle: %w", err)
	}
	return &LocalDetection{Result: res.Verdict, Rejecting: res.Rejecting}, nil
}

// QuantumResult reports a quantum detection run: the verdict plus the
// charged quantum round ledger (see docs/ARCHITECTURE.md for the simulation
// substitution).
type QuantumResult struct {
	Found   bool
	Witness []NodeID
	// QuantumRounds is the charged cost of Theorem 2's pipeline:
	// decomposition + per-color max of log(1/δ)·O(1/√ε)·(D+T_setup).
	QuantumRounds float64
	// Components is the number of diameter-reduced components processed.
	Components int
	// Eps is the base (Lemma 12) success probability amplified from.
	Eps float64
}

func quantumResult(res *quantum.Result) *QuantumResult {
	return &QuantumResult{
		Found:         res.Found,
		Witness:       res.Witness,
		QuantumRounds: res.QuantumRounds,
		Components:    res.Components,
		Eps:           res.Eps,
	}
}

// DetectQuantum decides C_{2k}-freeness on the quantum CONGEST ledger
// (Theorem 2): Õ(n^{1/2-1/2k}) charged rounds, error 1/poly(n).
func DetectQuantum(g *Graph, k int, opts ...Option) (*QuantumResult, error) {
	c := buildConfig(opts)
	res, err := quantum.DetectEvenCycle(g, k, quantum.Options{
		Delta:             c.delta,
		MaxSims:           c.maxSims,
		AttemptIterations: c.iterations,
		Seed:              c.seed,
		Parallel:          c.parallel,
	})
	if err != nil {
		return nil, fmt.Errorf("evencycle: %w", err)
	}
	return quantumResult(res), nil
}

// DetectOddQuantum decides C_{2k+1}-freeness in Θ̃(√n) charged quantum
// rounds (Section 3.4).
func DetectOddQuantum(g *Graph, k int, opts ...Option) (*QuantumResult, error) {
	c := buildConfig(opts)
	res, err := quantum.DetectOddCycle(g, k, quantum.Options{
		Delta:             c.delta,
		MaxSims:           c.maxSims,
		AttemptIterations: c.iterations,
		Seed:              c.seed,
		Parallel:          c.parallel,
	})
	if err != nil {
		return nil, fmt.Errorf("evencycle: %w", err)
	}
	return quantumResult(res), nil
}

// DetectDeterministic runs the deterministic broadcast-CONGEST detector
// of Fraigniaud–Luce–Magniez–Todinca (arXiv:2412.11195;
// internal/deterministic): every node relays exact-length walk
// announcements under the threshold τ = ⌈2k·n^{1-1/k}⌉, one broadcast
// per round, and a verified walk collision certifies the cycle. The
// one-sided guarantee is deterministic, not probabilistic: a reported
// cycle is real and a C_2k-free input is never rejected, on every run. A
// present C_2k can still be missed — on threshold overflow (Overflowed),
// or when every walk collision reconstructs a self-intersecting walk
// (chord-dense instances, mostly k ≥ 3). The detector draws no
// randomness: the result is a pure function of the graph — WithSeed,
// WithParallel and WithIterations have no effect, while
// WithThreshold overrides τ.
func DetectDeterministic(g *Graph, k int, opts ...Option) (*Result, error) {
	c := buildConfig(opts)
	res, err := deterministic.Detect(g, k, deterministic.Options{
		Threshold: c.threshold,
		Seed:      c.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("evencycle: %w", err)
	}
	return &res.Verdict, nil
}

// DetectBoundedQuantum decides F_{2k}-freeness in Õ(n^{1/2-1/2k}) charged
// quantum rounds (Section 3.5), improving van Apeldoorn–de Vos [PODC'22].
func DetectBoundedQuantum(g *Graph, k int, opts ...Option) (*QuantumResult, error) {
	c := buildConfig(opts)
	res, err := quantum.DetectBoundedCycle(g, k, quantum.Options{
		Delta:             c.delta,
		MaxSims:           c.maxSims,
		AttemptIterations: c.iterations,
		Seed:              c.seed,
		Parallel:          c.parallel,
	})
	if err != nil {
		return nil, fmt.Errorf("evencycle: %w", err)
	}
	return quantumResult(res), nil
}
