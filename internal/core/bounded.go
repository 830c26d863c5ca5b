package core

import (
	"fmt"
	"math"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/sched"
)

// BoundedResult reports the outcome of bounded-length cycle detection
// (F_{2k}-freeness, F_{2k} = {C_ℓ | 3 ≤ ℓ ≤ 2k}).
type BoundedResult struct {
	// Verdict is Found when a cycle of some length ℓ ∈ [3, 2k] was
	// detected; FoundLen is that length and Witness the verified cycle.
	congest.Verdict
	Detector graph.NodeID
	Params   Params
}

// DetectBoundedCycle decides F_{2k}-freeness: whether g contains any cycle
// of length at most 2k. It implements the classical algorithm of
// Censor-Hillel et al. [DISC'20] with the paper's Section 3.5 adaptations,
// which is the algorithm the paper quantizes:
//
//   - lengths are tested in pairs (2ℓ-1, 2ℓ) for ℓ = 2..k, each pair by a
//     single merged color-BFS (nodes colored ℓ+1 also feed nodes colored
//     ℓ-1, catching odd cycles);
//   - the light-degree bound stays n^{1/k} for every pair;
//   - W is the set of all neighbors of S (no degree-count requirement);
//   - the threshold is τ = 2np;
//   - two color-BFS calls per coloring: (G[U], U) and (G, W).
//
// One-sidedness: every detection carries a witness verified against g.
func DetectBoundedCycle(g *graph.Graph, k int, opt Options) (*BoundedResult, error) {
	eps := opt.Eps
	if eps == 0 {
		eps = 1.0 / 3
	}
	params, err := NewParams(g.NumNodes(), k, eps)
	if err != nil {
		return nil, err
	}
	if opt.POverride > 0 {
		params.P = math.Min(opt.POverride, 1)
	}
	// Section 3.5 threshold: τ = 2np.
	params.Tau = int(math.Ceil(2 * float64(params.N) * params.P))
	if opt.Threshold > 0 {
		params.Tau = opt.Threshold
	}
	if opt.MaxIterations > 0 {
		params.Iterations = opt.MaxIterations
	}

	n := g.NumNodes()
	eng := newEngine([]*graph.Graph{g}, []uint64{opt.Seed}, opt)

	res := &BoundedResult{Params: params}

	sets := &Sets{Params: params, WAllNeighbors: true}
	rep, err := eng.Run(sets)
	if err != nil {
		return nil, fmt.Errorf("core: bounded set construction: %w", err)
	}
	res.Merge(rep.Costs())

	seedProb := opt.SeedProb
	if seedProb == 0 {
		seedProb = 1
	}
	bfsThreshold := opt.BFSThreshold
	if bfsThreshold == 0 {
		bfsThreshold = params.Tau
	}

	all := make([]bool, n)
	for v := range all {
		all[v] = true
	}

	// Pairs (2ℓ-1, 2ℓ) in increasing order: correctness for pair ℓ assumes
	// no cycle of length ≤ 2(ℓ-1), which earlier pairs would have caught —
	// so the pair loop stays sequential while the iterations within a pair
	// run as independent trials on the shared scheduler. One invocation
	// pool serves every pair (the vertex count never changes).
	runner := sched.TrialRunner{Workers: opt.Parallel}
	pool := NewColorBFSPool(opt.Arena, n)
	defer pool.Close()
	comps := []component{{FusedItem: FusedItem{Graph: g}, hi: graph.NodeID(n), active: true}}
	for ell := 2; ell <= k && !res.Found; ell++ {
		L := 2 * ell
		calls := []struct {
			name     string
			inH, inX []bool
		}{
			{"light (G[U],U)", sets.InU, sets.InU},
			{"heavy (G,W)", all, sets.InW},
		}
		trial := func(it int) (*iterOutcome, error) {
			// The color stream is tagged with ell so every (pair, iteration)
			// draws an independent fresh coloring, as the failure-probability
			// bound assumes.
			colors := IterationColors(n, L, sched.Tag(opt.Seed, 0x5bd1e995, uint64(ell)), it)
			outs := make([]iterOutcome, 1)
			for ci, call := range calls {
				_, err := colorBFSStep(pool, eng, ColorBFSSpec{
					L:          L,
					Color:      colors,
					InH:        call.inH,
					InX:        call.inX,
					Threshold:  bfsThreshold,
					SeedProb:   seedProb,
					DetectSkip: true,
					Pipelined:  opt.Pipelined,
				}, sched.Tag(opt.Seed, 0xb09d, uint64(ell), uint64(it), uint64(ci)), comps, outs, firstDetection)
				if err != nil {
					return nil, fmt.Errorf("core: bounded %s: %w", call.name, err)
				}
			}
			return &outs[0], nil
		}
		fold := func(it int, out *iterOutcome) bool {
			res.Iterations++
			res.Merge(out.costs)
			if len(out.witnesses) > 0 && !res.Found {
				w := out.witnesses[0]
				res.Found, res.Witness, res.FoundLen, res.Detector = true, w, len(w), out.det.Node
			}
			return res.Found
		}
		if _, err := sched.Run(runner, params.Iterations, trial, fold); err != nil {
			return nil, err
		}
	}
	return res, nil
}
