package deterministic

import (
	"fmt"
	"slices"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/idset"
)

// DetectMulti runs the deterministic detector for a batch of independent
// graphs in ONE fused engine session on their disjoint union. Components
// of a disjoint union can never exchange messages, and the protocol's
// only n-dependent parameter is the threshold τ, which is applied per
// node with each component's own n — so every component's transcript,
// and hence its Result (verdict, witness in the component's own IDs,
// rounds, messages, bits, congestion watermark, candidate count), is
// byte-identical to Detect on that graph alone. What the fusion saves is
// everything per-session: engine and protocol allocation, round
// scheduling, and bitmap/scatter fixed costs, amortized across the
// batch. Per-component costs are split via the engine's component
// accounting (Report.Comp); Bits are charged at each component's own
// MessageBits(n). This is the detector's one driver: Detect is a batch
// of one, which runs on its graph itself with no component map.
func DetectMulti(gs []*graph.Graph, k int, opt Options) ([]*Result, error) {
	if k < 2 {
		return nil, fmt.Errorf("deterministic: k = %d < 2 (C_2k detection needs k ≥ 2)", k)
	}
	if k > MaxK {
		return nil, fmt.Errorf("deterministic: k = %d exceeds the %d-bit walk-length field (MaxK = %d)", k, hopBits, MaxK)
	}
	if len(gs) == 0 {
		return nil, fmt.Errorf("deterministic: empty fused batch")
	}
	seeds := make([]uint64, len(gs))
	for i := range seeds {
		seeds[i] = opt.Seed // the protocol draws no randomness
	}
	eng := congest.NewFusedEngine(gs, seeds)
	eng.Runtime = opt.Runtime
	eng.Cancel = opt.Cancel
	eng.Observe = opt.Observe

	tau := func(g *graph.Graph) int {
		if opt.Threshold > 0 {
			return opt.Threshold
		}
		return DefaultThreshold(g.NumNodes(), k)
	}
	uniform := true
	for _, g := range gs {
		uniform = uniform && tau(g) == tau(gs[0])
	}
	// One τ for the whole union (always so for a batch of one) needs no
	// per-node table. The union lays graph i's nodes out right after
	// graph i-1's (see congest.NewFusedEngine).
	var tauAt []int32
	if !uniform {
		tauAt = make([]int32, 0, eng.Network().NumNodes())
		for _, g := range gs {
			t := idset.CapLen(tau(g))
			for range g.NumNodes() {
				tauAt = append(tauAt, t)
			}
		}
	}
	proto := takeDetProto(opt.Arena, eng.Network().Graph(), k, tau(gs[0]), tauAt)
	rep, err := eng.Run(proto)
	if err != nil {
		return nil, fmt.Errorf("deterministic: %w", err)
	}

	cands := proto.candidates()
	results := make([]*Result, len(gs))
	var hi graph.NodeID
	for i, g := range gs {
		lo := hi
		hi += graph.NodeID(g.NumNodes())
		rc := rep.Comp(i)
		res := &Result{Threshold: tau(g)}
		res.Costs = congest.Costs{
			Rounds:        rc.Rounds,
			Messages:      rc.Messages,
			Bits:          rc.Messages * congest.MessageBits(g.NumNodes()),
			MaxCongestion: proto.first.MaxLenRange(lo, hi),
		}
		for v := lo; v < hi; v++ {
			if proto.over[v] {
				res.Overflowed = true
				break
			}
		}
		// Candidates are globally sorted by (Node, Src, Second); a
		// component's node block is contiguous, so its candidates appear in
		// exactly the order a solo run sorts them. Examine them in that
		// order until the first verified simple cycle.
		for _, c := range cands {
			if c.Node < lo || c.Node >= hi {
				continue
			}
			res.Candidates++
			cycle, err := proto.witness(c)
			if err != nil {
				return nil, err
			}
			for j := range cycle {
				cycle[j] -= lo
			}
			if !graph.IsCycle(g, cycle, 2*k) {
				continue
			}
			res.Found, res.Witness, res.FoundLen = true, slices.Clone(cycle), 2*k
			res.Detector = c.Node - lo
			break
		}
		results[i] = res
	}
	proto.keep(opt.Arena)
	return results, nil
}
