package core

import (
	"slices"

	"repro/internal/congest"
	"repro/internal/graph"
)

// This file implements the listing variant of cycle detection discussed in
// the paper's Section 1.2: in subgraph listing, every occurrence must be
// reported by at least one node (as opposed to decision, where one
// rejection suffices). Algorithm 1 already surfaces one witness per
// (coloring, detector, seed) collision; listing runs the same driver
// (algorithm1) with every iteration and every collision kept, and
// deduplicates the verified witnesses up to rotation and reflection.
// Since distinct well-colored copies produce distinct collisions, every
// C_{2k} whose vertices receive a consecutive coloring during some
// iteration is listed; with the faithful K the guarantee "each copy
// listed with probability ≥ 1-ε" follows from Fact 1 exactly as for
// detection.

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
	if slices.Compare(forward, backward) < 0 {
		return forward
	}
	return backward
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

// ListEvenCycles runs Algorithm 1 in listing mode: a batch of one of
// the driver that runs every iteration (KeepGoing) and keeps every
// verified collision, whose distinct cycles it returns. Its costs and
// iteration count are those of DetectEvenCycle with KeepGoing on the
// same seed.
func ListEvenCycles(g *graph.Graph, k int, opt Options) (*ListResult, error) {
	opt.KeepGoing = true
	comps, _, err := algorithm1([]FusedItem{{Graph: g, Seed: opt.Seed, Iterations: opt.MaxIterations}}, k, opt, everyDetection)
	if err != nil {
		return nil, err
	}
	c := &comps[0]
	res := &ListResult{Costs: c.res.Costs, Iterations: c.res.Iterations}
	for _, w := range c.cycles {
		res.Cycles = append(res.Cycles, CanonicalCycle(w))
	}
	slices.SortFunc(res.Cycles, slices.Compare)
	res.Cycles = slices.CompactFunc(res.Cycles, slices.Equal)
	return res, nil
}
