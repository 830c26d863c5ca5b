package core

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/sched"
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
// opt.Seed, opt.MaxIterations and opt.Parallel are ignored (per-item
// seeds and budgets; iterations run sequentially on the one fused
// engine). Randomized seed activation (SeedProb < 1) and fault injection
// (DropProb) are not supported on the fused path — the service's miss
// path never sets either.
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
	eps := opt.Eps
	if eps == 0 {
		eps = 1.0 / 3
	}

	B := len(items)
	gs := make([]*graph.Graph, B)
	seeds := make([]uint64, B)
	params := make([]Params, B)
	for i, it := range items {
		if it.Iterations < 1 {
			return nil, fmt.Errorf("core: fused item %d has no trial budget (iterations %d)", i, it.Iterations)
		}
		p, err := NewParams(it.Graph.NumNodes(), k, eps)
		if err != nil {
			return nil, fmt.Errorf("core: fused item %d: %w", i, err)
		}
		p.Iterations = it.Iterations
		if opt.POverride > 0 {
			p.ApplyP(opt.POverride)
		}
		if opt.Threshold > 0 {
			p.Tau = opt.Threshold
		}
		gs[i], seeds[i], params[i] = it.Graph, it.Seed, p
	}

	eng, parts := congest.NewFusedEngine(gs, seeds)
	eng.Runtime = opt.Runtime
	eng.Cancel = opt.Cancel
	eng.Observe = opt.Observe
	total := eng.Network().NumNodes()

	// Instructions 1–5 for the whole batch in one session: per-node p and
	// n^{1/k} make every component's membership draws its own (the session
	// tag of this first run matches a solo engine's first run, and the
	// per-node seed bases make node streams component-solo-identical).
	sets := &Sets{
		Params:     params[0], // supplies the shared K; n-dependent fields are per node
		PAt:        make([]float64, total),
		LightMaxAt: make([]int32, total),
	}
	thrAt := make([]int32, total)
	for i := range items {
		lo, hi := parts.Component(i)
		bfsThreshold := params[i].Tau
		if opt.BFSThreshold > 0 {
			bfsThreshold = opt.BFSThreshold
		}
		for v := lo; v < hi; v++ {
			sets.PAt[v] = params[i].P
			sets.LightMaxAt[v] = int32(params[i].LightMax)
			thrAt[v] = int32(bfsThreshold)
		}
	}
	setsRep, err := eng.Run(sets)
	if err != nil {
		return nil, fmt.Errorf("core: fused set construction: %w", err)
	}

	results := make([]*Result, B)
	active := make([]bool, B)
	for i := range items {
		lo, hi := parts.Component(i)
		res := &Result{Params: params[i]}
		res.Rounds, res.Messages = setsRep.PerComp[i].Rounds, setsRep.PerComp[i].Messages
		for v := lo; v < hi; v++ {
			if sets.InU[v] {
				res.SizeU++
			}
			if sets.InS[v] {
				res.SizeS++
			}
			if sets.InW[v] {
				res.SizeW++
			}
		}
		results[i] = res
		active[i] = true
	}

	// Shared mask arrays for the three calls. Deactivating a component
	// zeroes its block in every mask (and its colors stay whatever the
	// last active iteration drew — harmless, since membership gates every
	// send and accept), so finished components cost nothing while the
	// rest of the batch continues.
	all := make([]bool, total)
	notS := make([]bool, total)
	for v := 0; v < total; v++ {
		all[v] = true
		notS[v] = !sets.InS[v]
	}
	deactivate := func(i int) {
		active[i] = false
		lo, hi := parts.Component(i)
		for v := lo; v < hi; v++ {
			all[v] = false
			notS[v] = false
			sets.InU[v] = false
			sets.InS[v] = false
			sets.InW[v] = false
		}
	}

	L := 2 * k
	calls := []struct {
		name     string
		inH, inX []bool
	}{
		{"light (G[U],U)", sets.InU, sets.InU},
		{"selected (G,S)", all, sets.InS},
		{"heavy (G∖S,W)", notS, sets.InW},
	}
	pool := NewColorBFSPool(total)
	foundAt := make([]bool, B) // found during the current iteration

	for it := 0; ; it++ {
		anyActive := false
		for i := range items {
			if active[i] && it >= params[i].Iterations {
				deactivate(i)
			}
			anyActive = anyActive || active[i]
		}
		if !anyActive {
			break
		}
		// A fresh coloring array per iteration: pooled invocations cache
		// their send-phase buckets by the Color slice's identity, so the
		// slice must change when its content does. Inactive components keep
		// color 0; their nodes are outside every H and never scheduled.
		colors := make([]int8, total)
		for i := range items {
			if !active[i] {
				continue
			}
			lo, hi := parts.Component(i)
			iterationColorsInto(colors[lo:hi], L, seeds[i], it)
			foundAt[i] = false
		}
		for ci, call := range calls {
			bfs, err := pool.Acquire(ColorBFSSpec{
				L:           L,
				Color:       colors,
				InH:         call.inH,
				InX:         call.inX,
				Threshold:   1, // ignored: ThresholdAt is set
				ThresholdAt: thrAt,
				SeedProb:    1,
				Pipelined:   opt.Pipelined,
			})
			if err != nil {
				return nil, fmt.Errorf("core: fused %s: %w", call.name, err)
			}
			rep, err := bfs.RunSessions(eng, sched.Tag(0xf05ed, uint64(it), uint64(ci)))
			if err != nil {
				return nil, fmt.Errorf("core: fused %s: %w", call.name, err)
			}
			dets := bfs.Detections()
			for i := range items {
				if !active[i] {
					continue
				}
				lo, hi := parts.Component(i)
				res := results[i]
				res.Merge(congest.Costs{
					Rounds:        rep.PerComp[i].Rounds,
					Messages:      rep.PerComp[i].Messages,
					MaxCongestion: bfs.MaxCongestionRange(lo, hi),
					Overflowed:    bfs.OverflowedRange(lo, hi),
				})
				if res.Found || foundAt[i] {
					continue
				}
				for _, d := range dets {
					if d.Node < lo || d.Node >= hi {
						continue
					}
					witness, err := bfs.Witness(d)
					if err != nil {
						return nil, fmt.Errorf("core: fused %s: %w", call.name, err)
					}
					for j := range witness {
						witness[j] -= lo
					}
					if err := graph.IsSimpleCycle(items[i].Graph, witness, L); err != nil {
						return nil, fmt.Errorf("core: fused %s produced invalid witness %v: %w", call.name, witness, err)
					}
					res.Found = true
					res.Witness = witness
					res.Detector = d.Node - lo
					foundAt[i] = true
					break
				}
			}
			pool.Release(bfs)
		}
		for i := range items {
			if !active[i] {
				continue
			}
			results[i].IterationsRun = it + 1
			if foundAt[i] && !opt.KeepGoing {
				deactivate(i)
			}
		}
	}

	for i, res := range results {
		res.Bits = res.Messages * congest.MessageBits(items[i].Graph.NumNodes())
	}
	return results, nil
}
