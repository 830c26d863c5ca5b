package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/sched"
)

// This file implements the listing variant of cycle detection discussed in
// the paper's Section 1.2: in subgraph listing, every occurrence must be
// reported by at least one node (as opposed to decision, where one
// rejection suffices). Algorithm 1 already surfaces one witness per
// (coloring, detector, seed) collision; the listing driver keeps *all*
// collisions across all iterations, reconstructs their witnesses, and
// deduplicates them up to rotation and reflection. Since distinct
// well-colored copies produce distinct collisions, every C_{2k} whose
// vertices receive a consecutive coloring during some iteration is listed;
// with the faithful K the guarantee "each copy listed with probability
// ≥ 1-ε" follows from Fact 1 exactly as for detection.

// CanonicalCycle returns a canonical form of a cycle's vertex sequence:
// rotated so the minimum vertex comes first and oriented toward the
// smaller second vertex. Two sequences describe the same cycle iff their
// canonical forms are equal.
func CanonicalCycle(verts []graph.NodeID) []graph.NodeID {
	n := len(verts)
	if n == 0 {
		return nil
	}
	minIdx := 0
	for i, v := range verts {
		if v < verts[minIdx] {
			minIdx = i
		}
	}
	forward := make([]graph.NodeID, n)
	backward := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		forward[i] = verts[(minIdx+i)%n]
		backward[i] = verts[(minIdx-i+n)%n]
	}
	if lessSeq(forward, backward) {
		return forward
	}
	return backward
}

func lessSeq(a, b []graph.NodeID) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func cycleKey(verts []graph.NodeID) string {
	canon := CanonicalCycle(verts)
	var sb strings.Builder
	for _, v := range canon {
		fmt.Fprintf(&sb, "%d,", v)
	}
	return sb.String()
}

// ListResult reports a listing run.
type ListResult struct {
	// Cycles are the distinct (up to rotation/reflection) verified
	// 2k-cycles found, in canonical form, sorted lexicographically.
	Cycles [][]graph.NodeID
	// Costs aggregates the run's cost.
	congest.Costs
	// Iterations is the number of coloring repetitions executed.
	Iterations int
}

// ListEvenCycles runs Algorithm 1 in listing mode: all iterations execute
// (no early stop), every identifier collision is materialized into a
// witness, and distinct cycles are collected. Every returned cycle is
// verified against g.
func ListEvenCycles(g *graph.Graph, k int, opt Options) (*ListResult, error) {
	params, err := resolveParams(g.NumNodes(), k, opt)
	if err != nil {
		return nil, err
	}

	n := g.NumNodes()
	net := congest.NewNetwork(g, opt.Seed)
	eng := congest.NewEngine(net)
	eng.Runtime = opt.Runtime
	eng.Cancel = opt.Cancel
	eng.Observe = opt.Observe

	sets := &Sets{Params: params}
	rep, err := eng.Run(sets)
	if err != nil {
		return nil, fmt.Errorf("core: listing set construction: %w", err)
	}
	sets.Finish()
	res := &ListResult{Costs: rep.Costs()}

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
		inH, inX []bool
	}{
		{sets.InU, sets.InU},
		{all, sets.InS},
		{notS, sets.InW},
	}

	// Listing mode has no early stop: every iteration is an independent
	// trial; the fold merges each trial's witnesses in index order, so the
	// listed set is identical for every Parallel setting.
	type listOutcome struct {
		costs     congest.Costs
		witnesses [][]graph.NodeID
	}
	seen := make(map[string]struct{})
	pool := NewColorBFSPool(opt.Arena, n)
	defer pool.Close()
	trial := func(it int) (*listOutcome, error) {
		colors := IterationColors(n, L, opt.Seed, it)
		out := &listOutcome{}
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
				return nil, err
			}
			rep, err := bfs.RunSessions(eng, sched.Tag(opt.Seed, 0xa190, uint64(it), uint64(ci)))
			if err != nil {
				return nil, err
			}
			out.costs.Merge(bfs.Costs(rep))
			for _, d := range bfs.Detections() {
				witness, err := bfs.Witness(d)
				if err != nil {
					return nil, fmt.Errorf("core: listing witness: %w", err)
				}
				if err := graph.IsSimpleCycle(g, witness, L); err != nil {
					return nil, fmt.Errorf("core: listing invalid witness: %w", err)
				}
				out.witnesses = append(out.witnesses, witness)
			}
			pool.Release(bfs)
		}
		return out, nil
	}
	fold := func(it int, out *listOutcome) bool {
		res.Iterations = it + 1
		res.Merge(out.costs)
		for _, witness := range out.witnesses {
			key := cycleKey(witness)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			res.Cycles = append(res.Cycles, CanonicalCycle(witness))
		}
		return false
	}
	runner := sched.TrialRunner{Workers: opt.Parallel}
	if _, err := sched.Run(runner, params.Iterations, trial, fold); err != nil {
		return nil, err
	}
	slices.SortFunc(res.Cycles, slices.Compare)
	return res, nil
}
