package core

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/idset"
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
	// KeepGoing runs all K iterations instead of stopping at the first
	// detection.
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
	// Verdict is Found when some node rejected; by one-sidedness the
	// input then provably contains the target cycle, and Witness holds
	// it. Its Costs sum every session of the run (set construction plus
	// all color-BFS phases).
	congest.Verdict
	// Detector is the rejecting node.
	Detector graph.NodeID

	// Set sizes from the construction phase.
	SizeU, SizeS, SizeW int

	// Params echoes the parameterization used.
	Params Params
}

// DetectEvenCycle runs Algorithm 1, deciding C_{2k}-freeness on g with
// one-sided error: if it reports Found, g contains C_{2k} (the witness is
// re-verified against g before returning); if g contains C_{2k}, it reports
// Found with probability ≥ 1-ε under the faithful parameterization. It is
// a batch of one for the fused driver (see DetectEvenCycleFused).
func DetectEvenCycle(g *graph.Graph, k int, opt Options) (*Result, error) {
	comps, _, err := algorithm1([]FusedItem{{Graph: g, Seed: opt.Seed, Iterations: opt.MaxIterations}}, k, opt, false)
	if err != nil {
		return nil, err
	}
	return &comps[0].res, nil
}

// resolveParams derives the parameterization of a run on n vertices: the
// paper's values at ε = opt.Eps (0 means 1/3) with opt's K, p and τ
// overrides applied.
func resolveParams(n, k int, opt Options) (Params, error) {
	eps := opt.Eps
	if eps == 0 {
		eps = 1.0 / 3
	}
	params, err := NewParams(n, k, eps)
	if err != nil {
		return Params{}, err
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
	return params, nil
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

// iterOutcome is one component's result of one coloring iteration (one
// trial of the shared scheduler): the summed cost of its color-BFS calls
// plus the detection state needed to finish the run.
type iterOutcome struct {
	costs    congest.Costs
	found    bool
	witness  []graph.NodeID
	detector graph.NodeID
	bfs      *ColorBFS
	det      Detection
}

// component is one item of an algorithm1 run: the item, its own
// parameters, its node range in the fused network and its result. A
// capturing run that found a cycle also keeps the detecting ColorBFS and
// its detection, so that a follow-up protocol (witness notification) can
// run on the same session state.
type component struct {
	FusedItem
	params Params
	lo, hi graph.NodeID
	active bool
	res    Result
	bfs    *ColorBFS
	det    Detection
}

// algorithm1 is the one driver of Algorithm 1. It runs the items in fused
// engine sessions on the disjoint union of their graphs; a batch of one
// runs on its graph itself (see congest.NewFusedEngine) and is the solo
// detector. Everything n-dependent is per component, so each component
// executes exactly the protocol it would alone (see DetectEvenCycleFused).
//
// An item's budget of 0 keeps opt.MaxIterations (0: the faithful K).
// Session tags are item 0's solo tags, sched.Tag(seed, 0xa190, it, ci);
// in a batch of more than one no color-BFS session draws randomness
// (DetectEvenCycleFused admits neither SeedProb < 1 nor DropProb), so
// only a batch of one depends on them. A batch of one runs its trials
// opt.Parallel at a time; larger batches run them sequentially, because
// the fold masks finished components out of arrays that the trials read.
// capture (a batch of one only) retains the detecting ColorBFS; the
// engine is returned for the follow-up protocol.
func algorithm1(items []FusedItem, k int, opt Options, capture bool) ([]component, *congest.Engine, error) {
	comps := make([]component, len(items))
	gs := make([]*graph.Graph, len(items))
	seeds := make([]uint64, len(items))
	iterations, uniform := 0, true
	total := 0
	for i, it := range items {
		p, err := resolveParams(it.Graph.NumNodes(), k, opt)
		if err != nil {
			return nil, nil, err
		}
		if it.Iterations > 0 {
			p.Iterations = it.Iterations
		}
		// The union lays item i's nodes out right after item i-1's (see
		// congest.NewFusedEngine).
		lo := graph.NodeID(total)
		total += p.N
		comps[i] = component{FusedItem: it, params: p, lo: lo, hi: graph.NodeID(total), active: true}
		comps[i].res.Params = p
		gs[i], seeds[i] = it.Graph, it.Seed
		iterations = max(iterations, p.Iterations)
		uniform = uniform && p.N == comps[0].params.N
	}
	eng := congest.NewFusedEngine(gs, seeds)
	eng.Runtime = opt.Runtime
	eng.DropProb = opt.DropProb
	eng.Cancel = opt.Cancel
	eng.Observe = opt.Observe

	bfsThreshold := func(p Params) int {
		if opt.BFSThreshold > 0 {
			return opt.BFSThreshold
		}
		return p.Tau
	}
	// Instructions 1–5 for the whole batch in one session. Every
	// parameter is a function of n, so a batch whose graphs share n
	// (always so for a batch of one) needs no per-node tables; otherwise
	// per-node p, n^{1/k} and τ give each component its own.
	sc := takeRunScratch(opt.Arena, total)
	sets := &sc.sets
	sets.Params = comps[0].params
	thr := bfsThreshold(comps[0].params)
	var thrAt []int32
	if !uniform {
		sets.PAt = make([]float64, total)
		sets.LightMaxAt = make([]int32, total)
		thrAt = make([]int32, total)
		for i := range comps {
			c := &comps[i]
			t := idset.CapLen(bfsThreshold(c.params))
			for v := c.lo; v < c.hi; v++ {
				sets.PAt[v] = c.params.P
				sets.LightMaxAt[v] = int32(c.params.LightMax)
				thrAt[v] = t
			}
		}
	}
	rep, err := eng.Run(sets)
	if err != nil {
		return nil, nil, fmt.Errorf("core: set construction: %w", err)
	}
	for i := range comps {
		c := &comps[i]
		rc := rep.Comp(i)
		c.res.Rounds, c.res.Messages = rc.Rounds, rc.Messages
		for v := c.lo; v < c.hi; v++ {
			c.res.SizeU += b2i(sets.InU[v])
			c.res.SizeS += b2i(sets.InS[v])
			c.res.SizeW += b2i(sets.InW[v])
		}
	}

	seedProb := opt.SeedProb
	if seedProb == 0 {
		seedProb = 1
	}
	sc.all, sc.notS = cleared(sc.all, total), cleared(sc.notS, total)
	all, notS := sc.all, sc.notS
	for v := range total {
		all[v] = true
		notS[v] = !sets.InS[v]
	}
	L := 2 * k
	calls := []struct {
		name     string
		inH, inX []bool
	}{
		{"light (G[U],U)", sets.InU, sets.InU}, // Instruction 9
		{"selected (G,S)", all, sets.InS},      // Instruction 10
		{"heavy (G∖S,W)", notS, sets.InW},      // Instruction 11
	}

	// Instruction 7: K search phases, as trials on the shared scheduler.
	// Each trial runs the three color-BFS calls of one coloring under
	// explicit session tags and returns one outcome per component; the
	// fold aggregates the deterministic prefix, so the result is the same
	// for every Parallel. Invocations are pooled: every trial reuses the
	// identifier-set tables of earlier ones.
	pool := NewColorBFSPool(opt.Arena, total)
	defer pool.Close()
	trial := func(it int) ([]iterOutcome, error) {
		outs := make([]iterOutcome, len(comps))
		// Inactive components get color 0; their nodes are outside every H.
		colors := sc.coloring(total)
		for i := range comps {
			if c := &comps[i]; c.active {
				iterationColorsInto(colors[c.lo:c.hi], L, c.Seed, it)
			} else {
				clear(colors[c.lo:c.hi])
			}
		}
		// A retained invocation keeps reading its coloring.
		kept := false
		for ci, call := range calls {
			bfs, err := pool.Acquire(ColorBFSSpec{
				L:           L,
				Color:       colors,
				InH:         call.inH,
				InX:         call.inX,
				Threshold:   thr,
				ThresholdAt: thrAt,
				SeedProb:    seedProb,
				Pipelined:   opt.Pipelined,
			})
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", call.name, err)
			}
			rep, err := bfs.RunSessions(eng, sched.Tag(comps[0].Seed, 0xa190, uint64(it), uint64(ci)))
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", call.name, err)
			}
			retained := false
			for i := range comps {
				c, out := &comps[i], &outs[i]
				if !c.active {
					continue
				}
				rc := rep.Comp(i)
				out.costs.Merge(congest.Costs{
					Rounds:        rc.Rounds,
					Messages:      rc.Messages,
					MaxCongestion: bfs.MaxCongestionRange(c.lo, c.hi),
					Overflowed:    bfs.OverflowedRange(c.lo, c.hi),
				})
				if out.found {
					continue
				}
				for _, d := range bfs.Detections() {
					if d.Node < c.lo || d.Node >= c.hi {
						continue
					}
					witness, err := bfs.Witness(d)
					if err != nil {
						return nil, fmt.Errorf("core: %s: %w", call.name, err)
					}
					for j := range witness {
						witness[j] -= c.lo
					}
					if err := graph.IsSimpleCycle(c.Graph, witness, L); err != nil {
						return nil, fmt.Errorf("core: %s produced invalid witness %v: %w", call.name, witness, err)
					}
					out.found, out.witness, out.detector = true, witness, d.Node-c.lo
					if capture {
						out.bfs, out.det, retained = bfs, d, true
					}
					break
				}
			}
			if !retained {
				pool.Release(bfs)
			}
			kept = kept || retained
		}
		if !kept {
			sc.putColoring(colors)
		}
		return outs, nil
	}
	// stops reports whether component c ends with iteration it.
	stops := func(c *component, it int) bool {
		return (c.res.Found && !opt.KeepGoing) || it+1 >= c.params.Iterations
	}
	fold := func(it int, outs []iterOutcome) bool {
		live := 0
		for i := range comps {
			c, out := &comps[i], &outs[i]
			if !c.active {
				continue
			}
			c.res.Iterations = it + 1
			c.res.Merge(out.costs)
			if out.found && !c.res.Found {
				c.res.Found, c.res.Witness, c.res.FoundLen, c.res.Detector = true, out.witness, L, out.detector
				c.bfs, c.det = out.bfs, out.det
			} else if out.bfs != nil {
				// A detecting trial that lost the fold (KeepGoing, or a later
				// index than the first winner) no longer needs its retained
				// invocation.
				pool.Release(out.bfs)
			}
			if !stops(c, it) {
				live++
			}
		}
		if live == 0 {
			return true
		}
		// Some component continues, so this is a batch of more than one
		// and the trials run sequentially: masking the finished components
		// out of the shared arrays races with no trial.
		for i := range comps {
			c := &comps[i]
			if !c.active || !stops(c, it) {
				continue
			}
			c.active = false
			for v := c.lo; v < c.hi; v++ {
				all[v], notS[v] = false, false
				sets.InU[v], sets.InS[v], sets.InW[v] = false, false, false
			}
		}
		return false
	}
	runner := sched.TrialRunner{Workers: opt.Parallel}
	if len(comps) > 1 {
		runner.Workers = 1
	}
	if _, err := sched.Run(runner, iterations, trial, fold); err != nil {
		return nil, nil, err
	}
	for i := range comps {
		c := &comps[i]
		c.res.Bits = c.res.Messages * congest.MessageBits(c.params.N)
	}
	if !capture {
		// A captured invocation still reads the sets and masks.
		sc.keep(opt.Arena)
	}
	return comps, eng, nil
}

// runScratch is the per-node state of an Algorithm 1 run that no
// color-BFS invocation owns: the vertex sets, the H masks of the
// selected and heavy calls, and the coloring buffers of finished trials,
// which later trials refill. An arena retains it across runs, as it
// retains the invocations.
type runScratch struct {
	sets      Sets
	all, notS []bool

	mu     sync.Mutex // guards colors: trials may run in parallel
	colors [][]int8
}

// takeRunScratch returns the arena's retained scratch for n nodes when
// one has the capacity, else a fresh one.
func takeRunScratch(arena *congest.Arena, n int) *runScratch {
	if sc := congest.Take[runScratch](arena, n, 0); sc != nil {
		return sc
	}
	return &runScratch{}
}

// coloring returns a coloring buffer of n entries with unspecified
// contents: a finished trial's, or a fresh one.
func (sc *runScratch) coloring(n int) []int8 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for len(sc.colors) > 0 {
		last := len(sc.colors) - 1
		c := sc.colors[last]
		sc.colors = sc.colors[:last]
		if cap(c) >= n {
			return c[:n]
		}
	}
	return make([]int8, n)
}

// putColoring hands back a coloring no invocation reads any more.
func (sc *runScratch) putColoring(c []int8) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.colors = append(sc.colors, c)
}

// keep offers the scratch to the arena once the run's results are read.
func (sc *runScratch) keep(arena *congest.Arena) {
	if arena == nil {
		return
	}
	sc.sets.PAt, sc.sets.LightMaxAt = nil, nil
	c := cap(sc.all)
	bytes := int64(c) * (3 + 4 + 2) // InU/InS/InW, SCount, all/notS
	for _, col := range sc.colors {
		bytes += int64(cap(col))
	}
	congest.Keep(arena, sc, c, 0, bytes)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
