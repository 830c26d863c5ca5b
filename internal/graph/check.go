package graph

import (
	"fmt"
)

// IsSimpleCycle reports whether verts is a simple cycle of length
// wantLen in g: exactly wantLen distinct vertices, consecutive vertices
// adjacent, and the last adjacent to the first. The error says what is
// wrong; IsCycle answers the same question without building one.
func IsSimpleCycle(g *Graph, verts []NodeID, wantLen int) error {
	switch f := checkCycle(g, verts, wantLen); f.kind {
	case faultLen:
		return fmt.Errorf("cycle has %d vertices, want %d", len(verts), wantLen)
	case faultShort:
		return fmt.Errorf("cycle length %d < 3", wantLen)
	case faultRange:
		return fmt.Errorf("vertex %d out of range", f.u)
	case faultRepeat:
		return fmt.Errorf("vertex %d repeated", f.u)
	case faultEdge:
		return fmt.Errorf("missing edge {%d,%d}", f.u, f.v)
	}
	return nil
}

// IsCycle is IsSimpleCycle as a predicate. It allocates nothing for
// cycles of up to 8 vertices, so detectors screen candidate witnesses
// with it.
func IsCycle(g *Graph, verts []NodeID, wantLen int) bool {
	return checkCycle(g, verts, wantLen).kind == faultNone
}

// cycleFault is the first reason checkCycle found that verts is not a
// simple cycle, with the vertices it concerns.
type cycleFault struct {
	kind int
	u, v NodeID
}

const (
	faultNone = iota
	faultLen
	faultShort
	faultRange
	faultRepeat
	faultEdge
)

// checkCycle is the one simple-cycle check behind IsSimpleCycle and
// IsCycle.
func checkCycle(g *Graph, verts []NodeID, wantLen int) cycleFault {
	if len(verts) != wantLen {
		return cycleFault{kind: faultLen}
	}
	if wantLen < 3 {
		return cycleFault{kind: faultShort}
	}
	seen := make(map[NodeID]struct{}, wantLen)
	for _, v := range verts {
		if int(v) < 0 || int(v) >= g.NumNodes() {
			return cycleFault{kind: faultRange, u: v}
		}
		if _, dup := seen[v]; dup {
			return cycleFault{kind: faultRepeat, u: v}
		}
		seen[v] = struct{}{}
	}
	for i := range verts {
		u, v := verts[i], verts[(i+1)%wantLen]
		if !g.HasEdge(u, v) {
			return cycleFault{kind: faultEdge, u: u, v: v}
		}
	}
	return cycleFault{}
}

// FindCycleLen searches for a simple cycle of exactly length L and returns
// its vertices, or nil if none exists. It is an exact exponential-time
// reference procedure intended for validating detectors on test-sized
// graphs: it enumerates simple paths from each canonical start vertex
// (the minimum-ID vertex of the cycle), pruned by BFS distance back to the
// start.
func FindCycleLen(g *Graph, L int) []NodeID {
	if L < 3 {
		return nil
	}
	n := g.NumNodes()
	path := make([]NodeID, 0, L)
	onPath := make([]bool, n)
	for s := 0; s < n; s++ {
		if g.Degree(NodeID(s)) < 2 {
			continue
		}
		dist := bfsDistFrom(g, NodeID(s), NodeID(s))
		path = append(path[:0], NodeID(s))
		onPath[s] = true
		if found := dfsCycle(g, NodeID(s), L, path, onPath, dist); found != nil {
			return found
		}
		onPath[s] = false
	}
	return nil
}

// bfsDistFrom computes BFS distances from src restricted to vertices with
// ID >= minID (the canonicalization used by FindCycleLen).
func bfsDistFrom(g *Graph, src, minID NodeID) []int32 {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if w >= minID && dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func dfsCycle(g *Graph, start NodeID, L int, path []NodeID, onPath []bool, dist []int32) []NodeID {
	u := path[len(path)-1]
	if len(path) == L {
		// All L vertices placed; the cycle closes iff the last one is
		// adjacent to the start.
		if g.HasEdge(u, start) {
			out := make([]NodeID, L)
			copy(out, path)
			return out
		}
		return nil
	}
	remaining := L - len(path) // edges still to place before closing
	for _, w := range g.Neighbors(u) {
		if w <= start || onPath[w] {
			continue
		}
		// Prune: after placing w, the cycle still has remaining-1 path
		// edges plus the closing edge available, so w must be within
		// distance `remaining` of the start.
		if dist[w] < 0 || int(dist[w]) > remaining {
			continue
		}
		path = append(path, w)
		onPath[w] = true
		if found := dfsCycle(g, start, L, path, onPath, dist); found != nil {
			return found
		}
		onPath[w] = false
		path = path[:len(path)-1]
	}
	return nil
}

// HasCycleLen reports whether g contains a simple cycle of exactly length L.
func HasCycleLen(g *Graph, L int) bool { return FindCycleLen(g, L) != nil }

// Girth returns the length of a shortest cycle in g, or -1 if g is acyclic.
// It runs a BFS from every vertex and, for every non-tree edge (x,y)
// encountered, considers the candidate dist(x)+dist(y)+1; the minimum over
// all roots is the exact girth (the classical O(nm) algorithm: rooted at a
// vertex of a shortest cycle, BFS distances along the cycle are exact, so
// the cycle's "closing" edge realizes the girth).
func Girth(g *Graph) int {
	n := g.NumNodes()
	best := -1
	dist := make([]int32, n)
	parent := make([]int32, n)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
			parent[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if best >= 0 && int(2*dist[u]) >= best {
				// No shorter cycle can be found from this root.
				break
			}
			for _, w := range g.Neighbors(u) {
				switch {
				case dist[w] < 0:
					dist[w] = dist[u] + 1
					parent[w] = u
					queue = append(queue, w)
				case parent[u] != w && parent[w] != u:
					if c := int(dist[u] + dist[w] + 1); best < 0 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}

// girthBrute returns the exact girth by trying FindCycleLen for every
// length; used only to cross-validate Girth in tests.
func girthBrute(g *Graph, maxLen int) int {
	for L := 3; L <= maxLen; L++ {
		if HasCycleLen(g, L) {
			return L
		}
	}
	return -1
}
