package core

import (
	"fmt"

	"repro/internal/graph"
)

// FusedItem is one request of a fused detection batch: a graph, the
// master seed its randomness derives from, and its own trial budget.
type FusedItem struct {
	Graph *graph.Graph
	Seed  uint64
	// Iterations is the coloring-repetition budget for this item; fused
	// runs always state an explicit finite budget (≥ 1).
	Iterations int
}

// DetectEvenCycleFused runs Algorithm 1 for a batch of independent
// requests in fused engine sessions on the disjoint union of their
// graphs. Components of a disjoint union never exchange messages, so
// each component executes exactly the protocol it would solo — provided
// everything n-dependent is per-component: the node randomness streams
// (per-node seed bases reproduce each component's solo network), the
// parameters p, n^{1/k} and τ (applied per node), and the iteration
// colorings (drawn from each component's own (seed, iteration) stream).
// Under that contract results[i] is identical to
// DetectEvenCycle(items[i].Graph, k, opt′) with opt′.Seed = items[i].Seed
// and opt′.MaxIterations = items[i].Iterations — verdict, witness (in
// the item's own vertex IDs), rounds, messages, bits, congestion
// watermark, overflow flag, iterations run and set sizes — which the
// equivalence suite pins. A component whose detector finds a cycle (or
// exhausts its budget) stops scheduling its nodes at the end of that
// iteration while the rest of the batch continues.
//
// This is the one driver of Algorithm 1: DetectEvenCycle is a batch of
// one. Items carry their own seeds and budgets, so opt.Seed and
// opt.MaxIterations are ignored. A batch of one runs opt.Parallel trials
// at once; larger batches run their trials sequentially on the one fused
// engine. Randomized seed activation (SeedProb < 1) and fault injection
// (DropProb) are rejected here, since the sessions of a larger batch
// share one tag and one component map; every item states a budget ≥ 1.
func DetectEvenCycleFused(items []FusedItem, k int, opt Options) ([]*Result, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("core: empty fused batch")
	}
	if opt.SeedProb != 0 && opt.SeedProb != 1 {
		return nil, fmt.Errorf("core: fused sessions do not support randomized seed activation (SeedProb %v)", opt.SeedProb)
	}
	if opt.DropProb != 0 {
		return nil, fmt.Errorf("core: fused sessions do not support fault injection (DropProb %v)", opt.DropProb)
	}
	for i, it := range items {
		if it.Iterations < 1 {
			return nil, fmt.Errorf("core: fused item %d has no trial budget (iterations %d)", i, it.Iterations)
		}
	}
	comps, _, err := algorithm1(items, k, opt, firstDetection)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(items))
	for i := range results {
		results[i] = &comps[i].res
	}
	return results, nil
}
