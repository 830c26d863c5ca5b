package congest

// Fused sessions: a disjoint union of graphs is itself a valid CONGEST
// network whose components can never exchange messages (there are no
// edges between them, and Send enforces locality). One session on the
// union therefore executes every component's protocol simultaneously,
// amortizing per-session setup and per-round scheduling across the batch,
// while each component's transcript stays node-for-node identical to a
// solo run — provided the component's node randomness streams and the
// protocol's n-dependent parameters are reproduced per component. This
// file supplies the network half of that contract; SetComponents supplies
// the cost-accounting split.

import "repro/internal/graph"

// NewFusedEngine builds the disjoint-union network of the given graphs
// and returns an engine with per-component accounting installed. The
// union lays the graphs out in argument order, as graph.UnionTagged
// does: graph i's node u is global node base_i+u, where base_i is the
// total node count of graphs 0..i-1, and callers read component i's
// share of a report through Report.Comp(i). seeds[i] is the master seed
// component i's node streams derive from: global node base_i+u draws
// exactly the stream node u draws on NewNetwork(gs[i], seeds[i]) under
// the same session tag.
//
// A batch of one is its own union: the engine runs on gs[0] itself under
// seeds[0], with no CSR copy, no per-node seed bases and no component
// map (Report.Comp(0) is the report's own totals). It is therefore
// exactly a solo engine, DropProb included.
func NewFusedEngine(gs []*graph.Graph, seeds []uint64) *Engine {
	if len(seeds) != len(gs) {
		panic("congest: NewFusedEngine needs one seed per graph")
	}
	if len(gs) == 1 {
		return NewEngine(NewNetwork(gs[0], seeds[0]))
	}
	u, parts := graph.UnionTagged(gs)
	bases := make([]uint64, u.NumNodes())
	for i := range gs {
		lo, hi := parts.Component(i)
		for v := lo; v < hi; v++ {
			bases[v] = SeedBase(seeds[i], v-lo)
		}
	}
	eng := NewEngine(NewNetworkSeedBases(u, bases))
	eng.SetComponents(parts.Comp, len(gs))
	return eng
}
