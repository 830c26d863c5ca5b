package quantum

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/lowprob"
	"repro/internal/proto"
)

// Options tunes the quantum detectors.
type Options struct {
	// Delta is the target one-sided error; 0 means 1/n² (the paper's
	// 1/poly(n)).
	Delta float64
	// MaxSims caps classical Setup simulations per component (semantics
	// realization only; see AmplifyOptions.MaxSims).
	MaxSims int
	// AttemptIterations overrides the coloring repetitions K inside each
	// low-probability attempt (0 = faithful).
	AttemptIterations int
	// AttemptSeedProb overrides the seed-activation probability inside
	// attempts. This is a semantics-only experiment knob (it raises the
	// chance a capped simulation finds the planted cycle); the quantum
	// round charge always uses the faithful ε.
	AttemptSeedProb float64
	// NoDecomposition skips the Lemma 9 diameter reduction and amplifies
	// on the whole graph, exposing the D·√(1/ε) term (ablation A4).
	NoDecomposition bool
	// EpsFn overrides the base success probability as a function of the
	// component size (0-arg nil keeps the faithful value). Scaling
	// experiments use constant-rescaled ε = 1/(3τ_scaled) so that the
	// exponent — the measured quantity — is visible at simulation sizes
	// (see core.Options.POverride for the same reasoning).
	EpsFn func(n int) (float64, error)
	Seed  uint64
	// Runtime configures every engine of the pipeline (see
	// congest.Runtime); transcripts are bit-identical for every setting.
	congest.Runtime

	// Parallel is the number of Setup simulations amplified concurrently
	// per component (0/1 sequential, negative GOMAXPROCS); see
	// AmplifyOptions.Parallel.
	Parallel int
}

// Result reports a quantum detection run.
type Result struct {
	// Found and Witness follow the usual one-sided contract; witnesses are
	// verified against the input graph.
	Found   bool
	Witness []graph.NodeID

	// QuantumRounds is the total charged quantum cost: decomposition
	// rounds plus, per color, the maximum component amplification cost.
	QuantumRounds float64
	// DecompRounds is the decomposition's share.
	DecompRounds int
	// Colors is the number of decomposition colors summed over (the γ of
	// Lemma 10; 1 when NoDecomposition).
	Colors int
	// Components is the number of component runs.
	Components int
	// Eps is the base success probability used on the largest component.
	Eps float64
	// ClassicalSims / SimRounds aggregate the simulation effort (not part
	// of the quantum charge).
	ClassicalSims int
	SimRounds     int
	// MaxLedger is the single largest component ledger, for inspection.
	MaxLedger Ledger
}

// pipeline abstracts the three detectors over the common
// decompose-amplify-verify structure of Lemma 13.
type pipeline struct {
	// hSize is the number of vertices of the target subgraph H (2k for
	// C_{2k}, 2k+1 for C_{2k+1}).
	hSize int
	// eps returns the base success probability of one attempt on an
	// n-vertex (sub)graph.
	eps func(n int) (float64, error)
	// attempt runs the base low-probability algorithm on a subgraph.
	attempt func(sub *graph.Graph, seed uint64) (bool, []graph.NodeID, int, error)
}

// DetectEvenCycle is the paper's quantum C_{2k}-freeness algorithm
// (Theorem 2 / Lemma 13): diameter reduction (Lemma 9), then within each
// component distributed quantum Monte-Carlo amplification (Theorem 3) of
// the congestion-reduced detector (Lemma 12). Round complexity
// k^{O(k)}·polylog(n)·n^{1/2-1/2k}; error 1/poly(n), one-sided.
func DetectEvenCycle(g *graph.Graph, k int, opt Options) (*Result, error) {
	if k < 2 {
		return nil, fmt.Errorf("quantum: k = %d < 2", k)
	}
	pipe := pipeline{
		hSize: 2 * k,
		eps:   func(n int) (float64, error) { return lowprob.SuccessProb(n, k) },
		attempt: func(sub *graph.Graph, seed uint64) (bool, []graph.NodeID, int, error) {
			res, err := lowprob.Detect(sub, k, core.Options{
				Seed:          seed,
				MaxIterations: opt.AttemptIterations,
				SeedProb:      opt.AttemptSeedProb,
				Runtime:       opt.Runtime,
			})
			if err != nil {
				return false, nil, 0, err
			}
			return res.Found, res.Witness, res.Rounds, nil
		},
	}
	return runPipeline(g, pipe, opt)
}

// DetectOddCycle is the Section 3.4 quantum C_{2k+1}-freeness algorithm:
// Θ̃(√n) rounds, error 1/poly(n), one-sided. k ≥ 1.
func DetectOddCycle(g *graph.Graph, k int, opt Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("quantum: odd detection needs k ≥ 1")
	}
	pipe := pipeline{
		hSize: 2*k + 1,
		eps:   func(n int) (float64, error) { return lowprob.OddSuccessProb(n), nil },
		attempt: func(sub *graph.Graph, seed uint64) (bool, []graph.NodeID, int, error) {
			res, err := lowprob.DetectOdd(sub, k, lowprob.OddOptions{
				Seed:          seed,
				MaxIterations: opt.AttemptIterations,
				SeedProb:      opt.AttemptSeedProb,
				Runtime:       opt.Runtime,
			})
			if err != nil {
				return false, nil, 0, err
			}
			return res.Found, res.Witness, res.Rounds, nil
		},
	}
	return runPipeline(g, pipe, opt)
}

// DetectBoundedCycle is the Section 3.5 quantum F_{2k}-freeness algorithm
// ({C_ℓ | 3 ≤ ℓ ≤ 2k}): Õ(n^{1/2-1/2k}) rounds, improving the
// Õ(n^{1/2-1/(4k+2)}) of van Apeldoorn–de Vos [PODC'22].
func DetectBoundedCycle(g *graph.Graph, k int, opt Options) (*Result, error) {
	if k < 2 {
		return nil, fmt.Errorf("quantum: bounded detection needs k ≥ 2")
	}
	pipe := pipeline{
		hSize: 2 * k,
		eps:   func(n int) (float64, error) { return lowprob.BoundedSuccessProb(n, k) },
		attempt: func(sub *graph.Graph, seed uint64) (bool, []graph.NodeID, int, error) {
			res, err := lowprob.DetectBounded(sub, k, core.Options{
				Seed:          seed,
				MaxIterations: opt.AttemptIterations,
				SeedProb:      opt.AttemptSeedProb,
				Runtime:       opt.Runtime,
			})
			if err != nil {
				return false, nil, 0, err
			}
			return res.Found, res.Witness, res.Rounds, nil
		},
	}
	return runPipeline(g, pipe, opt)
}

func runPipeline(g *graph.Graph, pipe pipeline, opt Options) (*Result, error) {
	if opt.EpsFn != nil {
		pipe.eps = opt.EpsFn
	}
	res := &Result{}
	if opt.NoDecomposition {
		comp := decomp.Component{Color: 0, Sub: g, Orig: identity(g.NumNodes())}
		led, found, witness, err := amplifyComponent(comp, pipe, opt, 0)
		if err != nil {
			return nil, err
		}
		res.Components = 1
		res.Colors = 1
		res.QuantumRounds = led.QuantumRounds
		res.ClassicalSims = led.ClassicalSims
		res.SimRounds = led.SimRounds
		res.MaxLedger = led
		res.Eps, _ = pipe.eps(max(g.NumNodes(), 2))
		if found {
			res.Found = true
			res.Witness = witness
			if err := graph.IsSimpleCycle(g, witness, len(witness)); err != nil {
				return nil, fmt.Errorf("quantum: invalid witness: %w", err)
			}
		}
		return res, nil
	}

	// Lemma 9: decompose with separation > 2·hSize so that enlarged
	// same-color clusters are vertex-disjoint and non-adjacent, then run
	// per component.
	dec, err := decomp.Decompose(g, 2*pipe.hSize+2, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("quantum: decomposition: %w", err)
	}
	res.DecompRounds = dec.Rounds
	res.QuantumRounds = float64(dec.Rounds)
	comps := dec.Components(g, pipe.hSize)

	perColorMax := make(map[int]float64)
	for ci, comp := range comps {
		if comp.Sub.NumNodes() < pipe.hSize {
			continue
		}
		led, found, witness, err := amplifyComponent(comp, pipe, opt, uint64(ci))
		if err != nil {
			return nil, err
		}
		res.Components++
		res.ClassicalSims += led.ClassicalSims
		res.SimRounds += led.SimRounds
		if led.QuantumRounds > perColorMax[comp.Color] {
			perColorMax[comp.Color] = led.QuantumRounds
		}
		if led.QuantumRounds > res.MaxLedger.QuantumRounds {
			res.MaxLedger = led
		}
		if e, err := pipe.eps(max(comp.Sub.NumNodes(), 2)); err == nil && (res.Eps == 0 || e < res.Eps) {
			res.Eps = e
		}
		if found && !res.Found {
			mapped := make([]graph.NodeID, len(witness))
			for i, v := range witness {
				mapped[i] = comp.Orig[v]
			}
			if err := graph.IsSimpleCycle(g, mapped, len(mapped)); err != nil {
				return nil, fmt.Errorf("quantum: mapped witness invalid: %w", err)
			}
			res.Found = true
			res.Witness = mapped
		}
	}
	for _, r := range perColorMax {
		res.QuantumRounds += r
	}
	res.Colors = len(perColorMax)
	if res.Colors == 0 {
		res.Colors = 1
	}
	return res, nil
}

// amplifyComponent runs Theorem 3 on one component: measures the O(D)
// Setup scaffolding (leader election tree + convergecast) and the
// component diameter, then amplifies the base attempts.
func amplifyComponent(comp decomp.Component, pipe pipeline, opt Options, salt uint64) (Ledger, bool, []graph.NodeID, error) {
	n := comp.Sub.NumNodes()
	if n < 2 {
		return Ledger{}, false, nil, nil
	}
	net := congest.NewNetwork(comp.Sub, opt.Seed^salt*0x9e3779b97f4a7c15)
	eng := congest.NewEngine(net)
	eng.Runtime = opt.Runtime

	tree, repTree, err := proto.BuildTree(eng, 0)
	if err != nil {
		return Ledger{}, false, nil, err
	}
	conv := &proto.ConvergecastOr{Tree: tree, Value: make([]bool, n)}
	repConv, err := eng.Run(conv)
	if err != nil {
		return Ledger{}, false, nil, err
	}
	diameter := 2 * tree.MaxDepth() // root eccentricity e: e ≤ D ≤ 2e

	eps, err := pipe.eps(max(n, 2))
	if err != nil {
		return Ledger{}, false, nil, err
	}
	attempt := func(i int) (bool, []graph.NodeID, int, error) {
		seed := opt.Seed ^ (salt+1)*0xbf58476d1ce4e5b9 ^ uint64(i+1)*0x94d049bb133111eb
		return pipe.attempt(comp.Sub, seed)
	}
	amp, err := AmplifyMonteCarlo(attempt, AmplifyOptions{
		Eps:         eps,
		Delta:       opt.Delta,
		N:           n,
		ElectRounds: repTree.Rounds,
		CastRounds:  repConv.Rounds,
		Diameter:    diameter,
		MaxSims:     opt.MaxSims,
		Parallel:    opt.Parallel,
	})
	if err != nil {
		return Ledger{}, false, nil, err
	}
	return amp.Ledger, amp.Found, amp.Witness, nil
}

func identity(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}
