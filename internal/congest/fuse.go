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
// and returns an engine with per-component accounting installed, plus the
// component map for demultiplexing. seeds[i] is the master seed component
// i's node streams derive from: node u of graph i (global ID
// parts.Base[i]+u) draws exactly the stream it would on
// NewNetwork(gs[i], seeds[i]) under the same session tag.
//
// A batch of one is its own union: the engine runs on gs[0] itself under
// seeds[0], with no CSR copy and no per-node seed bases.
func NewFusedEngine(gs []*graph.Graph, seeds []uint64) (*Engine, *graph.UnionParts) {
	if len(seeds) != len(gs) {
		panic("congest: NewFusedEngine needs one seed per graph")
	}
	var net *Network
	var parts *graph.UnionParts
	if len(gs) == 1 {
		net = NewNetwork(gs[0], seeds[0])
		parts = &graph.UnionParts{Comp: make([]int32, gs[0].NumNodes()), Base: []int32{0}}
	} else {
		var u *graph.Graph
		u, parts = graph.UnionTagged(gs)
		bases := make([]uint64, u.NumNodes())
		for i := range gs {
			lo, hi := parts.Component(i)
			for v := lo; v < hi; v++ {
				bases[v] = SeedBase(seeds[i], v-lo)
			}
		}
		net = NewNetworkSeedBases(u, bases)
	}
	eng := NewEngine(net)
	eng.SetComponents(parts.Comp, len(gs))
	return eng, parts
}
