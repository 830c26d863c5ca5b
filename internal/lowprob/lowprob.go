package lowprob

import (
	"fmt"
	"math"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sched"
)

// ConstantThreshold is the forwarding threshold of Algorithm 2
// (Instruction 5 of randomized-color-BFS).
const ConstantThreshold = 4

// Detect runs Lemma 12's detector A: Algorithm 1 with every color-BFS call
// replaced by randomized-color-BFS (seed activation probability 1/τ,
// forwarding threshold 4). One run costs k^{O(k)} rounds — independent of
// n — and succeeds (finds an existing C_{2k}) with probability ≥ 1/(3τ).
func Detect(g *graph.Graph, k int, opt core.Options) (*core.Result, error) {
	eps := opt.Eps
	if eps == 0 {
		eps = 1.0 / 3
	}
	params, err := core.NewParams(g.NumNodes(), k, eps)
	if err != nil {
		return nil, err
	}
	if opt.SeedProb == 0 {
		opt.SeedProb = 1 / float64(params.Tau)
	}
	if opt.BFSThreshold == 0 {
		opt.BFSThreshold = ConstantThreshold
	}
	return core.DetectEvenCycle(g, k, opt)
}

// SuccessProb returns the one-sided success probability 1/(3τ) of the
// Lemma 12 detector on an n-vertex graph.
func SuccessProb(n, k int) (float64, error) {
	params, err := core.NewParams(n, k, 1.0/3)
	if err != nil {
		return 0, err
	}
	return 1 / (3 * float64(params.Tau)), nil
}

// DetectBounded is the analogous low-probability variant of the
// bounded-length detector (Section 3.5's algorithm with randomized
// activation), used by the quantum F_{2k} detector.
func DetectBounded(g *graph.Graph, k int, opt core.Options) (*core.BoundedResult, error) {
	eps := opt.Eps
	if eps == 0 {
		eps = 1.0 / 3
	}
	params, err := core.NewParams(g.NumNodes(), k, eps)
	if err != nil {
		return nil, err
	}
	tau := int(math.Ceil(2 * float64(params.N) * params.P))
	if tau < 1 {
		tau = 1
	}
	if opt.SeedProb == 0 {
		opt.SeedProb = 1 / float64(tau)
	}
	if opt.BFSThreshold == 0 {
		opt.BFSThreshold = ConstantThreshold
	}
	return core.DetectBoundedCycle(g, k, opt)
}

// BoundedSuccessProb returns the one-sided success probability 1/(3τ) with
// the Section 3.5 threshold τ = 2np.
func BoundedSuccessProb(n, k int) (float64, error) {
	params, err := core.NewParams(n, k, 1.0/3)
	if err != nil {
		return 0, err
	}
	tau := 2 * float64(params.N) * params.P
	if tau < 1 {
		tau = 1
	}
	return 1 / (3 * tau), nil
}

// OddOptions tunes the Section 3.4 odd-cycle detector.
type OddOptions struct {
	// MaxIterations caps the number of colorings; 0 keeps the faithful
	// ε̂·(2k+1)^{2k+1} value.
	MaxIterations int
	// SeedProb overrides the activation probability (0 means the faithful
	// 1/n).
	SeedProb float64
	// Threshold overrides the constant forwarding threshold (0 means 4).
	Threshold int
	Seed      uint64
	// Runtime configures the engine (see congest.Runtime); transcripts
	// are bit-identical for every setting.
	congest.Runtime
	// Parallel is the number of coloring trials in flight (0/1 sequential,
	// negative GOMAXPROCS); results are deterministic regardless.
	Parallel  int
	KeepGoing bool
	// Cancel aborts in-flight engine sessions at the next round boundary
	// when tripped (see congest.CancelFlag); untripped it changes nothing.
	Cancel *congest.CancelFlag
	// Observe receives each completed engine session's round count and
	// wall clock (see congest.Engine.Observe); purely passive.
	Observe func(rounds int, wall time.Duration)
}

// OddResult reports a run of the odd-cycle detector.
type OddResult struct {
	// Verdict carries every coloring's cost, including the color-BFS
	// congestion watermark and overflow against the threshold.
	congest.Verdict
	Detector graph.NodeID
}

// DetectOdd runs the Section 3.4 low-probability detector for
// C_{2k+1}-freeness: repeated random colorings with colors {0,…,2k}, a
// randomized-color-BFS on the whole graph with X = V, activation
// probability 1/n and constant threshold 4. One run costs O(1) rounds per
// coloring and succeeds with probability Ω(1/n) when a (2k+1)-cycle exists.
func DetectOdd(g *graph.Graph, k int, opt OddOptions) (*OddResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("lowprob: odd detection needs k ≥ 1, got %d", k)
	}
	n := g.NumNodes()
	if n < 3 {
		return &OddResult{}, nil
	}
	L := 2*k + 1
	seedProb := opt.SeedProb
	if seedProb == 0 {
		seedProb = 1 / float64(n)
	}
	threshold := opt.Threshold
	if threshold == 0 {
		threshold = ConstantThreshold
	}
	iterations := opt.MaxIterations
	if iterations == 0 {
		faithful := math.Log(9) * math.Pow(float64(L), float64(L))
		if faithful > math.MaxInt32 {
			faithful = math.MaxInt32
		}
		iterations = int(math.Ceil(faithful))
	}

	net := congest.NewNetwork(g, opt.Seed)
	eng := congest.NewEngine(net)
	eng.Runtime = opt.Runtime
	eng.Cancel = opt.Cancel
	eng.Observe = opt.Observe

	all := make([]bool, n)
	for v := range all {
		all[v] = true
	}

	// Each coloring is an independent trial on the shared scheduler; the
	// fold aggregates the deterministic prefix, so the outcome is the same
	// for every Parallel setting.
	type oddOutcome struct {
		costs    congest.Costs
		found    bool
		witness  []graph.NodeID
		detector graph.NodeID
	}
	pool := core.NewColorBFSPool(opt.Arena, n)
	defer pool.Close()
	trial := func(it int) (*oddOutcome, error) {
		colors := core.IterationColors(n, L, sched.Tag(opt.Seed, 0x27d4eb2f), it)
		bfs, err := pool.Acquire(core.ColorBFSSpec{
			L:         L,
			Color:     colors,
			InH:       all,
			InX:       all,
			Threshold: threshold,
			SeedProb:  seedProb,
		})
		if err != nil {
			return nil, fmt.Errorf("lowprob: odd color-BFS: %w", err)
		}
		rep, err := bfs.RunSessions(eng, sched.Tag(opt.Seed, 0x0dd, uint64(it)))
		if err != nil {
			return nil, fmt.Errorf("lowprob: odd color-BFS: %w", err)
		}
		out := &oddOutcome{costs: bfs.Costs(rep)}
		if ds := bfs.Detections(); len(ds) > 0 {
			witness, err := bfs.Witness(ds[0])
			if err != nil {
				return nil, fmt.Errorf("lowprob: odd witness: %w", err)
			}
			if err := graph.IsSimpleCycle(g, witness, L); err != nil {
				return nil, fmt.Errorf("lowprob: odd invalid witness: %w", err)
			}
			out.found = true
			out.witness = witness
			out.detector = ds[0].Node
		}
		pool.Release(bfs)
		return out, nil
	}
	res := &OddResult{}
	fold := func(it int, out *oddOutcome) bool {
		res.Iterations = it + 1
		res.Merge(out.costs)
		if out.found && !res.Found {
			res.Found, res.Witness, res.FoundLen = true, out.witness, L
			res.Detector = out.detector
		}
		return res.Found && !opt.KeepGoing
	}
	runner := sched.TrialRunner{Workers: opt.Parallel}
	if _, err := sched.Run(runner, iterations, trial, fold); err != nil {
		return nil, err
	}
	return res, nil
}

// OddSuccessProb returns the per-run success probability Ω(1/n) (we use
// the 1/(3n) bound mirroring Lemma 12's analysis).
func OddSuccessProb(n int) float64 { return 1 / (3 * float64(n)) }
