package graph

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// NodeID identifies a vertex. Vertices are always 0..N-1.
type NodeID = int32

// Graph is an immutable simple undirected graph in CSR (compressed sparse
// row) form. The zero value is the empty graph.
type Graph struct {
	offsets []int32 // len n+1; row pointers into targets
	targets []int32 // concatenated sorted adjacency lists
	// fpm memoizes Fingerprint (immutability makes the hash a constant)
	// together with its absorb-block checkpoints; fpr optionally links a
	// spliced graph to its parent so that first computation can resume
	// from the parent's checkpoints instead of rehashing from word zero.
	fpm atomic.Pointer[fpMemo]
	fpr atomic.Pointer[fpResume]
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.targets) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Offsets returns the CSR row offsets: v's adjacency list occupies
// slots [Offsets()[v], Offsets()[v+1]) of the concatenated lists, and
// Offsets()[NumNodes()] is the directed-edge count. The slice aliases
// internal storage and must not be modified; graphs are immutable, so
// two graphs share it only when they are the same value.
func (g *Graph) Offsets() []int32 {
	if len(g.offsets) == 0 {
		return []int32{0}
	}
	return g.offsets
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []int32 {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, found := slices.BinarySearch(g.Neighbors(u), v)
	return found
}

// MaxDegree returns the maximum degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	best := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(NodeID(v)); d > best {
			best = d
		}
	}
	return best
}

// Edges returns all edges as pairs with u < v, in lexicographic order.
func (g *Graph) Edges() [][2]NodeID {
	out := make([][2]NodeID, 0, g.NumEdges())
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, [2]NodeID{u, v})
			}
		}
	}
	return out
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are dropped. The zero value is not usable; call NewBuilder.
// Edges are stored packed (u<<32 | v with u < v), so sorting them is a
// plain integer sort and lexicographic edge order is key order.
type Builder struct {
	n     int
	edges []uint64
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NewBuilderCap returns a builder for a graph on n vertices with room for
// edgeCap edges pre-allocated. Generators that know their edge count up
// front use this to avoid append growth.
func NewBuilderCap(n, edgeCap int) *Builder {
	return &Builder{n: n, edges: make([]uint64, 0, max(edgeCap, 0))}
}

// Grow ensures capacity for at least extra additional edges.
func (b *Builder) Grow(extra int) {
	b.edges = slices.Grow(b.edges, extra)
}

// AddEdge records the undirected edge {u,v}. Self-loops are ignored.
// Out-of-range endpoints grow the vertex set.
func (b *Builder) AddEdge(u, v NodeID) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
	b.edges = append(b.edges, uint64(uint32(u))<<32|uint64(uint32(v)))
}

// NumNodes returns the current number of vertices.
func (b *Builder) NumNodes() int { return b.n }

// AddNodes ensures the graph has at least n vertices.
func (b *Builder) AddNodes(n int) {
	if n > b.n {
		b.n = n
	}
}

// Build produces the immutable graph. The builder may be reused afterwards.
func (b *Builder) Build() *Graph {
	slices.Sort(b.edges)
	b.edges = slices.Compact(b.edges)
	deg := make([]int32, b.n+1)
	for _, e := range b.edges {
		deg[int32(e>>32)+1]++
		deg[int32(uint32(e))+1]++
	}
	offsets := make([]int32, b.n+1)
	for i := 1; i <= b.n; i++ {
		offsets[i] = offsets[i-1] + deg[i]
	}
	targets := make([]int32, offsets[b.n])
	cursor := make([]int32, b.n)
	copy(cursor, offsets[:b.n])
	// Single pass over the sorted unique edge list leaves every row sorted:
	// row w first receives its back-edges {u,w} (u < w, in ascending u —
	// they sort before w's own block) and then its forward edges {w,v}
	// (v > w, in ascending v), so no per-row post-sort is needed.
	for _, e := range b.edges {
		u, v := int32(e>>32), int32(uint32(e))
		targets[cursor[u]] = v
		cursor[u]++
		targets[cursor[v]] = u
		cursor[v]++
	}
	return &Graph{offsets: offsets, targets: targets}
}

// FromEdges builds a graph on n vertices from the given edge list.
func FromEdges(n int, edges [][2]NodeID) *Graph {
	b := NewBuilderCap(n, len(edges))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// WithEdges returns a new graph equal to g plus the given undirected
// edges. Duplicates (of existing or new edges) and self-loops are
// dropped, and endpoints beyond the current vertex count grow the vertex
// set, exactly as Builder.AddEdge. g itself is never modified — Graph is
// immutable, so mutation is copy-on-write: the caller installs the
// returned value while readers holding the old pointer keep a fully
// consistent snapshot (and fingerprint) of the pre-mutation graph.
// Negative endpoints or endpoints beyond MaxReadNodes are rejected.
//
// When the added edges grow no vertices, the new CSR is produced by
// splicing only the dirty rows of g's CSR (see spliceEdges) instead of
// rebuilding through a Builder; the result is bit-identical either way
// because the CSR is canonical. If every added edge is a duplicate or a
// self-loop the mutation is a no-op and WithEdges returns g itself —
// same value, same pointer, same memoized fingerprint.
func (g *Graph) WithEdges(edges [][2]NodeID) (*Graph, error) {
	for i, e := range edges {
		if e[0] < 0 || e[1] < 0 || int(e[0]) > MaxReadNodes || int(e[1]) > MaxReadNodes {
			return nil, fmt.Errorf("graph: added edge %d has endpoint out of range: [%d,%d]", i, e[0], e[1])
		}
	}
	if ng, ok := g.spliceEdges(edges); ok {
		return ng, nil
	}
	b := NewBuilderCap(g.NumNodes(), g.NumEdges()+len(edges))
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				b.AddEdge(u, v)
			}
		}
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build(), nil
}

// spliceEdges is the incremental WithEdges fast path. Precondition: every
// added endpoint already lies in [0, n) — an edge that grows the vertex
// set shifts every row boundary and renders no prefix reusable, so those
// mutations take the Builder rebuild (ok == false). Otherwise the new CSR
// equals g's except in the rows that receive insertions: offsets shift by
// the number of directed insertions before them, and each dirty row is a
// sorted merge of its old adjacency list with its new targets. Clean spans
// between dirty rows are bulk-copied. The result carries a fingerprint-
// resume link to g (see noteSpliceParent).
func (g *Graph) spliceEdges(edges [][2]NodeID) (*Graph, bool) {
	n := g.NumNodes()
	// Canonicalize exactly as Builder.Build: pack u<v keys, drop
	// self-loops, sort, dedupe — then drop edges g already has.
	packed := make([]uint64, 0, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if int(u) >= n || int(v) >= n {
			return nil, false
		}
		if u > v {
			u, v = v, u
		}
		packed = append(packed, uint64(uint32(u))<<32|uint64(uint32(v)))
	}
	slices.Sort(packed)
	packed = slices.Compact(packed)
	fresh := packed[:0]
	for _, e := range packed {
		if !g.HasEdge(int32(e>>32), int32(uint32(e))) {
			fresh = append(fresh, e)
		}
	}
	if len(fresh) == 0 {
		// No-op mutation: the canonical CSR is unchanged, so the "new"
		// graph IS g. Returning the same pointer lets callers (store WAL,
		// service corpus) detect and skip the whole mutation.
		return g, true
	}
	// Each undirected edge inserts into two rows; sorting the directed
	// (row, target) pairs groups insertions by row in target order.
	ins := make([]uint64, 0, 2*len(fresh))
	for _, e := range fresh {
		u, v := e>>32, uint64(uint32(e))
		ins = append(ins, u<<32|v, v<<32|u)
	}
	slices.Sort(ins)

	offsets := make([]int32, n+1)
	targets := make([]int32, len(g.targets)+len(ins))
	pos, src := 0, 0 // write / read cursors into targets / g.targets
	row := 0         // next row whose offset is unwritten
	for ii := 0; ii < len(ins); {
		dirty := int(ins[ii] >> 32)
		// Clean span [row, dirty): offsets shift uniformly, targets copy.
		shift := int32(pos - src)
		for ; row <= dirty; row++ {
			offsets[row] = g.offsets[row] + shift
		}
		spanEnd := int(g.offsets[dirty])
		copy(targets[pos:], g.targets[src:spanEnd])
		pos += spanEnd - src
		src = spanEnd
		// Dirty row: sorted merge of the old row with its insertions.
		start := ii
		for ii < len(ins) && int(ins[ii]>>32) == dirty {
			ii++
		}
		adds := ins[start:ii]
		rowEnd := int(g.offsets[dirty+1])
		ai := 0
		for _, w := range g.targets[src:rowEnd] {
			for ai < len(adds) && int32(uint32(adds[ai])) < w {
				targets[pos] = int32(uint32(adds[ai]))
				pos++
				ai++
			}
			targets[pos] = w
			pos++
		}
		for ; ai < len(adds); ai++ {
			targets[pos] = int32(uint32(adds[ai]))
			pos++
		}
		src = rowEnd
	}
	shift := int32(pos - src)
	for ; row <= n; row++ {
		offsets[row] = g.offsets[row] + shift
	}
	copy(targets[pos:], g.targets[src:])

	ng := &Graph{offsets: offsets, targets: targets}
	ng.noteSpliceParent(g, int(ins[0]>>32))
	return ng, true
}

// InducedSubgraph returns the subgraph induced by the vertices with
// keep[v] == true, together with the mapping from new IDs to original IDs.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []NodeID) {
	n := g.NumNodes()
	remap := make([]int32, n)
	orig := make([]NodeID, 0, n)
	for v := 0; v < n; v++ {
		if keep[v] {
			remap[v] = int32(len(orig))
			orig = append(orig, NodeID(v))
		} else {
			remap[v] = -1
		}
	}
	b := NewBuilder(len(orig))
	for _, u := range orig {
		for _, w := range g.Neighbors(u) {
			if keep[w] && u < w {
				b.AddEdge(remap[u], remap[w])
			}
		}
	}
	return b.Build(), orig
}

// ConnectedComponents returns, for each vertex, its component index, and the
// number of components.
func (g *Graph) ConnectedComponents() ([]int32, int) {
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	next := int32(0)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if comp[w] < 0 {
					comp[w] = next
					queue = append(queue, w)
				}
			}
		}
		next++
	}
	return comp, int(next)
}

// BFSDistances runs a breadth-first search from src and returns the distance
// array (-1 for unreachable vertices).
func (g *Graph) BFSDistances(src NodeID) []int32 {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Diameter returns the exact diameter of the graph (max eccentricity over
// all vertices), or -1 if the graph is disconnected or empty. It runs a BFS
// from every vertex and is intended for tests and small instances.
func (g *Graph) Diameter() int {
	n := g.NumNodes()
	if n == 0 {
		return -1
	}
	best := 0
	for v := 0; v < n; v++ {
		dist := g.BFSDistances(NodeID(v))
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if int(d) > best {
				best = int(d)
			}
		}
	}
	return best
}

// DiameterApprox returns a 2-approximation of the diameter via double BFS
// from src (the eccentricity of the farthest vertex found). Returns -1 for a
// disconnected graph.
func (g *Graph) DiameterApprox(src NodeID) int {
	dist := g.BFSDistances(src)
	far, best := src, int32(0)
	for v, d := range dist {
		if d < 0 {
			return -1
		}
		if d > best {
			best, far = d, NodeID(v)
		}
	}
	dist = g.BFSDistances(far)
	best = 0
	for _, d := range dist {
		if d > best {
			best = d
		}
	}
	return int(best)
}

// Validate checks structural invariants of the CSR representation. It is
// used by property tests on builders and generators.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		row := g.Neighbors(NodeID(v))
		for i, w := range row {
			if int(w) < 0 || int(w) >= n {
				return fmt.Errorf("vertex %d: neighbor %d out of range", v, w)
			}
			if int(w) == v {
				return fmt.Errorf("vertex %d: self-loop", v)
			}
			if i > 0 && row[i-1] >= w {
				return fmt.Errorf("vertex %d: adjacency not strictly sorted", v)
			}
			if !g.HasEdge(w, NodeID(v)) {
				return fmt.Errorf("edge {%d,%d} not symmetric", v, w)
			}
		}
	}
	return nil
}
