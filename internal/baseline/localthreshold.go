package baseline

import (
	"fmt"
	"math"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sched"
)

// LocalThresholdOptions tunes the [DISC'20]-style detector.
type LocalThresholdOptions struct {
	// Tau is the constant local threshold τ_k (0 means 16). The original
	// analysis proves a suitable constant exists for k ∈ {2,…,5}; its
	// value is not spelled out, so it is a parameter here (experiment A2
	// sweeps it).
	Tau int
	// Attempts overrides the number of (source, coloring) attempts;
	// 0 means the faithful Θ(n^{1-1/k}) (with constant 4·(2k)^{2k}
	// mirroring the color-coding repetition).
	Attempts int
	// AttemptFactor scales the faithful attempt count without replacing
	// it (ignored when Attempts > 0; 0 means 1).
	AttemptFactor float64
	// HasFixedSource pins the source to FixedSource in every attempt
	// instead of sampling it uniformly (used by the A2 trap experiments).
	HasFixedSource bool
	FixedSource    graph.NodeID
	Seed           uint64
	// Runtime configures the engine (see congest.Runtime); transcripts
	// are bit-identical for every setting.
	congest.Runtime
	// Parallel is the number of attempts in flight (0/1 sequential,
	// negative GOMAXPROCS); results are deterministic regardless.
	Parallel  int
	KeepGoing bool
}

// LocalThresholdResult reports a run; Iterations counts the
// (source, coloring) attempts executed.
type LocalThresholdResult struct {
	congest.Verdict
}

// DetectLocalThreshold runs the local-threshold algorithm of
// Censor-Hillel et al.: each attempt selects a source s uniformly at
// random (shared randomness), colors every node uniformly in {0,…,2k-1},
// and lets the color-0 neighbors of s launch a color-BFS with the constant
// threshold τ_k. Each attempt costs at most k·τ_k = O(1) rounds; the
// Θ(n^{1-1/k}) attempts give constant success probability for
// k ∈ {2,…,5}. For k ≥ 6 no constant threshold works on all instances
// (Fraigniaud et al. [SIROCCO'23]) — experiment A2 exhibits the failure.
func DetectLocalThreshold(g *graph.Graph, k int, opt LocalThresholdOptions) (*LocalThresholdResult, error) {
	if k < 2 {
		return nil, fmt.Errorf("baseline: local threshold needs k ≥ 2, got %d", k)
	}
	n := g.NumNodes()
	if n < 2*k {
		return &LocalThresholdResult{}, nil
	}
	tau := opt.Tau
	if tau == 0 {
		tau = 16
	}
	attempts := opt.Attempts
	if attempts == 0 {
		factor := opt.AttemptFactor
		if factor == 0 {
			factor = 1
		}
		base := 4 * math.Pow(2*float64(k), 2*float64(k)) *
			math.Pow(float64(n), 1-1/float64(k)) * factor
		if base > math.MaxInt32 {
			base = math.MaxInt32
		}
		attempts = int(math.Ceil(base))
	}

	net := congest.NewNetwork(g, opt.Seed)
	eng := congest.NewEngine(net)
	eng.Runtime = opt.Runtime

	all := make([]bool, n)
	for v := range all {
		all[v] = true
	}
	L := 2 * k

	// Each (source, coloring) attempt is an independent trial on the
	// shared scheduler, with all shared randomness derived from the
	// attempt index so the outcome is the same for every Parallel setting.
	type attemptOutcome struct {
		costs   congest.Costs
		found   bool
		witness []graph.NodeID
	}
	trial := func(a int) (*attemptOutcome, error) {
		rng := graph.NewRand(sched.Tag(opt.Seed, 0x10ca1, uint64(a)))
		s := graph.NodeID(rng.Int32N(int32(n)))
		if opt.HasFixedSource {
			s = opt.FixedSource
		}
		colors := make([]int8, n)
		for v := range colors {
			colors[v] = int8(rng.IntN(L))
		}
		inX := make([]bool, n)
		for _, w := range g.Neighbors(s) {
			inX[w] = true
		}
		bfs, err := core.NewColorBFS(n, core.ColorBFSSpec{
			L:         L,
			Color:     colors,
			InH:       all,
			InX:       inX,
			Threshold: tau,
			SeedProb:  1,
		})
		if err != nil {
			return nil, fmt.Errorf("baseline: local threshold: %w", err)
		}
		rep, err := bfs.RunSessions(eng, sched.Tag(opt.Seed, 0x10ca2, uint64(a)))
		if err != nil {
			return nil, fmt.Errorf("baseline: local threshold: %w", err)
		}
		out := &attemptOutcome{costs: bfs.Costs(rep)}
		if ds := bfs.Detections(); len(ds) > 0 {
			witness, err := bfs.Witness(ds[0])
			if err != nil {
				return nil, fmt.Errorf("baseline: local threshold witness: %w", err)
			}
			if err := graph.IsSimpleCycle(g, witness, L); err != nil {
				return nil, fmt.Errorf("baseline: local threshold invalid witness: %w", err)
			}
			out.found = true
			out.witness = witness
		}
		return out, nil
	}
	res := &LocalThresholdResult{}
	fold := func(a int, out *attemptOutcome) bool {
		res.Iterations = a + 1
		res.Merge(out.costs)
		if out.found && !res.Found {
			res.Found, res.Witness, res.FoundLen = true, out.witness, L
		}
		return res.Found && !opt.KeepGoing
	}
	runner := sched.TrialRunner{Workers: opt.Parallel}
	if _, err := sched.Run(runner, attempts, trial, fold); err != nil {
		return nil, err
	}
	return res, nil
}
