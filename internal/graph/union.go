package graph

// UnionParts is the component map of a tagged disjoint union: for every
// vertex of the fused graph, which input graph it came from, and for every
// input graph, the offset its vertices were shifted by. Local and global
// IDs convert by `global = local + Base[i]` / `local = global - Base[Comp[global]]`.
type UnionParts struct {
	// Comp[v] is the index (into the UnionTagged argument list) of the input
	// graph that vertex v of the union belongs to.
	Comp []int32
	// Base[i] is the ID shift applied to input graph i: its vertex u
	// appears in the union as u + Base[i]. len(Base) == number of inputs,
	// and Base entries are nondecreasing (inputs keep argument order).
	Base []int32
}

// Component returns the half-open global vertex range [lo, hi) of input i.
func (p *UnionParts) Component(i int) (lo, hi int32) {
	lo = p.Base[i]
	if i+1 < len(p.Base) {
		hi = p.Base[i+1]
	} else {
		hi = int32(len(p.Comp))
	}
	return lo, hi
}

// UnionTagged returns the disjoint union of the given graphs, with graph
// i's vertices shifted past all earlier graphs' vertex blocks, plus the
// component map needed to demultiplex the union back into its inputs
// (the fused-session miss path uses it to remap witnesses and split cost
// accounting per request). No inputs give the empty graph. Unlike
// chaining the pairwise Union (which re-copies the accumulated edge list
// at every step, O(B²) total work for B graphs), it sizes the fused CSR
// once and fills it in a single pass: the inputs' CSR rows are already
// sorted, so each row of the union is a shifted copy of the
// corresponding input row — no re-sort, no dedup pass.
func UnionTagged(gs []*Graph) (*Graph, *UnionParts) {
	totalN, totalT := 0, 0
	for _, g := range gs {
		totalN += g.NumNodes()
		totalT += 2 * g.NumEdges()
	}
	offsets := make([]int32, totalN+1)
	targets := make([]int32, totalT)
	parts := &UnionParts{
		Comp: make([]int32, totalN),
		Base: make([]int32, len(gs)),
	}
	baseN, baseT := int32(0), int32(0)
	for i, g := range gs {
		parts.Base[i] = baseN
		n := g.NumNodes()
		for v := 0; v < n; v++ {
			offsets[int(baseN)+v+1] = baseT + g.offsets[v+1]
			parts.Comp[int(baseN)+v] = int32(i)
		}
		row := targets[baseT : int(baseT)+len(g.targets)]
		for j, w := range g.targets {
			row[j] = w + baseN
		}
		baseN += int32(n)
		baseT += int32(len(g.targets))
	}
	return &Graph{offsets: offsets, targets: targets}, parts
}
