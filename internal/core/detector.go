package core

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Options tunes a run of Algorithm 1. The zero value requests the paper's
// faithful parameterization with ε = 1/3.
type Options struct {
	// Eps is the one-sided error probability; 0 means 1/3.
	Eps float64
	// MaxIterations overrides the number of coloring repetitions K; 0
	// keeps the faithful (constant-in-n but enormous) value. Experiments
	// set a small value, which only lowers the success probability;
	// classical amplification of the low-probability detector sets a large
	// one. One-sidedness is unaffected either way.
	MaxIterations int
	// Threshold overrides τ (0 keeps the faithful value). Used by
	// congestion ablations.
	Threshold int
	// POverride overrides the selection probability p of S (0 keeps the
	// faithful ε̂·2k²/n^{1/k}). Scaling experiments use p = c/n^{1/k} with
	// a small c: the exponent of the round complexity in n — the measured
	// quantity — is unchanged, while the paper's constants (which exist to
	// guarantee the success probability and only matter at astronomical n
	// for k ≥ 3) stop dominating the instance sizes a simulation can run.
	POverride float64
	// SeedProb activates each color-0 seed independently with this
	// probability (0 means 1, the deterministic activation of
	// Algorithm 1). Values < 1 yield the congestion-reduced Algorithm 2.
	SeedProb float64
	// BFSThreshold overrides the threshold used inside color-BFS only,
	// leaving τ-derived set sizes alone; 0 means "same as Threshold".
	// Algorithm 2 sets this to 4.
	BFSThreshold int
	// Pipelined selects the pipelined color-BFS schedule (ablation A1).
	Pipelined bool
	// EarlyStop ends the iteration loop at the first detection (on by
	// default via DetectEvenCycle; set KeepGoing to run all iterations).
	KeepGoing bool
	// Seed is the master random seed.
	Seed uint64
	// Runtime configures every engine session of the run (see
	// congest.Runtime); transcripts are bit-identical for every setting.
	congest.Runtime
	// Parallel is the number of coloring iterations (trials) in flight at
	// once: 0 or 1 runs them sequentially, negative means GOMAXPROCS.
	// Results are deterministic for a fixed Seed regardless of Parallel
	// (see internal/sched for the contract).
	Parallel int
	// DropProb injects adversarial message loss (see congest.Engine);
	// detection may be missed under loss but one-sidedness is structural.
	DropProb float64
	// Cancel, when set, is handed to every engine session of the run:
	// tripping it aborts the detection at the next round boundary with
	// congest.ErrCanceled. An untripped flag leaves every transcript
	// bit-identical (see congest.CancelFlag).
	Cancel *congest.CancelFlag
	// Observe, when set, is handed to every engine session of the run
	// and called with each completed session's round count and wall
	// clock (see congest.Engine.Observe). Purely passive: transcripts,
	// results, and allocation counts are identical with or without it.
	Observe func(rounds int, wall time.Duration)
}

// Result reports the outcome and cost of a detection run.
type Result struct {
	// Found is true when some node rejected; by one-sidedness the input
	// then provably contains the target cycle, and Witness holds it.
	Found    bool
	Witness  []graph.NodeID
	Detector graph.NodeID

	// Costs sums every session of the run (set construction plus all
	// color-BFS phases).
	congest.Costs
	// IterationsRun is the number of coloring repetitions executed.
	IterationsRun int

	// Set sizes from the construction phase.
	SizeU, SizeS, SizeW int

	// Params echoes the parameterization used.
	Params Params
}

// DetectEvenCycle runs Algorithm 1, deciding C_{2k}-freeness on g with
// one-sided error: if it reports Found, g contains C_{2k} (the witness is
// re-verified against g before returning); if g contains C_{2k}, it reports
// Found with probability ≥ 1-ε under the faithful parameterization.
func DetectEvenCycle(g *graph.Graph, k int, opt Options) (*Result, error) {
	eps := opt.Eps
	if eps == 0 {
		eps = 1.0 / 3
	}
	params, err := NewParams(g.NumNodes(), k, eps)
	if err != nil {
		return nil, err
	}
	if opt.MaxIterations > 0 {
		params.Iterations = opt.MaxIterations
	}
	if opt.POverride > 0 {
		params.ApplyP(opt.POverride)
	}
	if opt.Threshold > 0 {
		params.Tau = opt.Threshold
	}
	return runAlgorithm1(g, params, opt)
}

// runAlgorithm1 executes the three-call structure of Algorithm 1 for the
// given (possibly overridden) parameters.
func runAlgorithm1(g *graph.Graph, params Params, opt Options) (*Result, error) {
	res, _, _, _, err := runAlgorithm1Capturing(g, params, opt)
	return res, err
}

// IterationColors draws the fresh uniform coloring of iteration `it`
// (Instruction 8): node-local randomness, zero rounds; drawn centrally
// from a per-iteration stream so that trials are reproducible and
// decorrelated under any scheduling. Callers running several independent
// coloring families (length pairs, detector variants) pre-tag the seed so
// the families draw distinct streams.
func IterationColors(n, L int, seed uint64, it int) []int8 {
	colors := make([]int8, n)
	iterationColorsInto(colors, L, seed, it)
	return colors
}

// iterationColorsInto fills dst with iteration it's coloring. Fused
// sessions draw each component's block of the union coloring through
// this, from the component's own (seed, it) stream — identical draws to
// the component's solo run.
func iterationColorsInto(dst []int8, L int, seed uint64, it int) {
	rng := rand.New(rand.NewPCG(
		sched.Tag(seed, 0xc0102, uint64(it)),
		sched.Tag(seed, 0xc0103, uint64(it)),
	))
	for v := range dst {
		dst[v] = int8(rng.IntN(L))
	}
}

// iterOutcome is the result of one coloring iteration (one trial of the
// shared scheduler): the summed cost of its color-BFS calls plus the
// detection state needed to finish the run.
type iterOutcome struct {
	costs    congest.Costs
	found    bool
	witness  []graph.NodeID
	detector graph.NodeID
	bfs      *ColorBFS
	det      Detection
}

// bfsCosts is one color-BFS call's cost: the sessions' report plus the
// invocation's congestion watermark and overflow flag.
func bfsCosts(rep *congest.Report, bfs *ColorBFS) congest.Costs {
	c := rep.Costs()
	c.MaxCongestion, c.Overflowed = bfs.MaxCongestion(), bfs.Overflowed()
	return c
}

// runAlgorithm1Capturing is runAlgorithm1 but additionally returns the
// detecting ColorBFS instance, its detection and the engine, so that
// follow-up protocols (witness notification, Section 1.2's local
// detection) can run on the same session state.
func runAlgorithm1Capturing(g *graph.Graph, params Params, opt Options) (*Result, *ColorBFS, Detection, *congest.Engine, error) {
	n := g.NumNodes()
	net := congest.NewNetwork(g, opt.Seed)
	eng := congest.NewEngine(net)
	eng.Runtime = opt.Runtime
	eng.DropProb = opt.DropProb
	eng.Cancel = opt.Cancel
	eng.Observe = opt.Observe

	res := &Result{Params: params}
	var detBFS *ColorBFS
	var det Detection

	// Instructions 1–5: construct U, S, W (one communication round).
	sets := &Sets{Params: params}
	rep, err := eng.Run(sets)
	if err != nil {
		return nil, nil, det, nil, fmt.Errorf("core: set construction: %w", err)
	}
	sets.Finish()
	res.Merge(rep.Costs())
	res.SizeU, res.SizeS, res.SizeW = sets.SizeU, sets.SizeS, sets.SizeW

	seedProb := opt.SeedProb
	if seedProb == 0 {
		seedProb = 1
	}
	bfsThreshold := opt.BFSThreshold
	if bfsThreshold == 0 {
		bfsThreshold = params.Tau
	}

	all := make([]bool, n)
	notS := make([]bool, n)
	for v := 0; v < n; v++ {
		all[v] = true
		notS[v] = !sets.InS[v]
	}
	L := 2 * params.K

	calls := []struct {
		name     string
		inH, inX []bool
	}{
		{"light (G[U],U)", sets.InU, sets.InU}, // Instruction 9
		{"selected (G,S)", all, sets.InS},      // Instruction 10
		{"heavy (G∖S,W)", notS, sets.InW},      // Instruction 11
	}

	// Instruction 7: K search phases, as independent trials on the shared
	// scheduler. Each trial runs the three color-BFS calls of one coloring
	// under explicit session tags; the fold below aggregates the
	// deterministic prefix, so the result is the same for every Parallel.
	// Invocations are pooled: every trial reuses the identifier-set tables
	// of earlier ones, so the 3×K color-BFS calls allocate almost nothing
	// after the first coloring.
	pool := NewColorBFSPool(n)
	trial := func(it int) (*iterOutcome, error) {
		colors := IterationColors(n, L, opt.Seed, it)
		out := &iterOutcome{}
		for ci, call := range calls {
			bfs, err := pool.Acquire(ColorBFSSpec{
				L:         L,
				Color:     colors,
				InH:       call.inH,
				InX:       call.inX,
				Threshold: bfsThreshold,
				SeedProb:  seedProb,
				Pipelined: opt.Pipelined,
			})
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", call.name, err)
			}
			rep, err := bfs.RunSessions(eng, sched.Tag(opt.Seed, 0xa190, uint64(it), uint64(ci)))
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", call.name, err)
			}
			out.costs.Merge(bfsCosts(rep, bfs))
			if len(bfs.Detections()) > 0 && !out.found {
				d := bfs.Detections()[0]
				witness, err := bfs.Witness(d)
				if err != nil {
					return nil, fmt.Errorf("core: %s: %w", call.name, err)
				}
				if err := graph.IsSimpleCycle(g, witness, L); err != nil {
					return nil, fmt.Errorf("core: %s produced invalid witness %v: %w", call.name, witness, err)
				}
				out.found = true
				out.witness = witness
				out.detector = d.Node
				out.bfs = bfs
				out.det = d
			}
			if out.bfs != bfs {
				// The detecting invocation is retained (witness notification
				// walks its parent pointers after the loop); everything else
				// goes back to the pool.
				pool.Release(bfs)
			}
		}
		return out, nil
	}
	fold := func(it int, out *iterOutcome) bool {
		res.IterationsRun = it + 1
		res.Merge(out.costs)
		if out.found && !res.Found {
			res.Found = true
			res.Witness = out.witness
			res.Detector = out.detector
			detBFS = out.bfs
			det = out.det
		} else if out.bfs != nil {
			// A detecting trial that lost the fold (KeepGoing, or a later
			// index than the first winner) no longer needs its retained
			// invocation; only detBFS must stay readable for notification.
			pool.Release(out.bfs)
		}
		return res.Found && !opt.KeepGoing
	}
	runner := sched.TrialRunner{Workers: opt.Parallel}
	if _, err := sched.Run(runner, params.Iterations, trial, fold); err != nil {
		return nil, nil, det, nil, err
	}
	return res, detBFS, det, eng, nil
}
