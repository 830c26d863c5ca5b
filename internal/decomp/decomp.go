package decomp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Cluster is one cluster of the decomposition: the core of a carved ball,
// labelled by the carving iteration (= its color).
type Cluster struct {
	Color   int
	Members []graph.NodeID
}

// Decomposition is the output of Decompose.
type Decomposition struct {
	Clusters []Cluster
	// Colors is the number of carving iterations used (= number of colors).
	Colors int
	// Covered[v] reports whether v belongs to at least one cluster.
	Covered []bool
	// Rounds is the simulated distributed cost of the construction.
	Rounds int
	// Delta is the truncation radius Θ(k log n) used by the carvings.
	Delta int
}

// Decompose builds a (k, O(k log n), O(log n)) decomposition of g:
// every node is in ≥ 1 cluster, same-color clusters are at distance ≥ k+1,
// and every cluster has (weak) diameter O(k log n). It retries with more
// carvings until full coverage (Las Vegas); failure to cover within the
// retry budget is reported as an error.
func Decompose(g *graph.Graph, k int, seed uint64) (*Decomposition, error) {
	if k < 1 {
		return nil, fmt.Errorf("decomp: k = %d < 1", k)
	}
	n := g.NumNodes()
	if n == 0 {
		return &Decomposition{Covered: []bool{}}, nil
	}
	logN := math.Log(float64(n) + 2)
	beta := 1 / (4 * float64(k))
	delta := int(math.Ceil(2*logN/beta)) + 2*k // Θ(k log n)
	gamma := int(math.Ceil(4 * logN))          // carvings per batch

	rng := graph.NewRand(seed ^ 0xdec0de)
	dec := &Decomposition{Covered: make([]bool, n), Delta: delta}

	covered := 0
	const maxBatches = 8
	for batch := 0; batch < maxBatches && covered < n; batch++ {
		for it := 0; it < gamma && covered < n; it++ {
			color := dec.Colors
			dec.Colors++
			dec.Rounds += delta + k // the two BFS passes of one carving

			owner := carve(g, beta, delta, rng)
			distOut := boundaryDistance(g, owner, k+1)

			// Cores: nodes strictly further than k from their cluster's
			// boundary, grouped by owner. Owners are walked in sorted
			// order — map iteration order would otherwise leak into the
			// cluster (hence component) order, and with it into every
			// downstream per-component seed, making quantum runs
			// irreproducible.
			byOwner := make(map[graph.NodeID][]graph.NodeID)
			for v := 0; v < n; v++ {
				if distOut[v] > int32(k) {
					byOwner[owner[v]] = append(byOwner[owner[v]], graph.NodeID(v))
				}
			}
			owners := make([]graph.NodeID, 0, len(byOwner))
			for o := range byOwner {
				owners = append(owners, o)
			}
			slices.Sort(owners)
			for _, o := range owners {
				members := byOwner[o]
				dec.Clusters = append(dec.Clusters, Cluster{Color: color, Members: members})
				for _, v := range members {
					if !dec.Covered[v] {
						dec.Covered[v] = true
						covered++
					}
				}
			}
		}
	}
	if covered < n {
		return nil, fmt.Errorf("decomp: %d/%d nodes uncovered after %d carvings", n-covered, n, dec.Colors)
	}
	return dec, nil
}

// carve runs one exponential-shift ball carving: every node draws a
// geometric shift δ_u (the discretized Exp(β)) truncated at delta-1 and
// starts claiming at time delta-δ_u; nodes join the earliest claim to
// reach them (ties: smaller source ID). Returns the owner of every node.
func carve(g *graph.Graph, beta float64, delta int, rng interface{ Float64() float64 }) []graph.NodeID {
	n := g.NumNodes()
	start := make([]int32, n)
	for u := 0; u < n; u++ {
		// Geometric(1-e^{-β}) = floor(Exp(β)).
		shift := int(math.Floor(-math.Log(1-rng.Float64()) / beta))
		if shift > delta-1 {
			shift = delta - 1
		}
		start[u] = int32(delta - 1 - shift)
	}
	owner := make([]graph.NodeID, n)
	claimTime := make([]int32, n)
	for v := range owner {
		owner[v] = -1
		claimTime[v] = -1
	}
	// Time-stepped multi-source BFS.
	frontier := make([]graph.NodeID, 0, n)
	var next []graph.NodeID
	for t := int32(0); t < int32(delta); t++ {
		// Unclaimed nodes whose start time arrives become their own source.
		for u := 0; u < n; u++ {
			if owner[u] < 0 && start[u] == t {
				owner[u] = graph.NodeID(u)
				claimTime[u] = t
				frontier = append(frontier, graph.NodeID(u))
			}
		}
		next = next[:0]
		for _, u := range frontier {
			if claimTime[u] != t {
				continue
			}
			for _, w := range g.Neighbors(u) {
				switch {
				case owner[w] < 0:
					owner[w] = owner[u]
					claimTime[w] = t + 1
					next = append(next, w)
				case claimTime[w] == t+1 && owner[u] < owner[w]:
					// Simultaneous claims: deterministic tie-break by
					// smaller source ID.
					owner[w] = owner[u]
				}
			}
		}
		frontier = append(frontier[:0], next...)
	}
	// In a connected graph every node is claimed by time delta; stragglers
	// in disconnected graphs claim themselves.
	for u := 0; u < n; u++ {
		if owner[u] < 0 {
			owner[u] = graph.NodeID(u)
		}
	}
	return owner
}

// boundaryDistance returns, for every node, the BFS distance to the nearest
// node owned by a different cluster, capped at `cap` (distances ≥ cap are
// reported as cap).
func boundaryDistance(g *graph.Graph, owner []graph.NodeID, capDist int) []int32 {
	n := g.NumNodes()
	dist := make([]int32, n)
	for v := range dist {
		dist[v] = int32(capDist)
	}
	queue := make([]graph.NodeID, 0, n)
	// Seed: nodes adjacent to a foreign cluster are at distance 1.
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			if owner[w] != owner[v] {
				dist[v] = 1
				queue = append(queue, graph.NodeID(v))
				break
			}
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if int(dist[u]) >= capDist-1 {
			continue
		}
		for _, w := range g.Neighbors(u) {
			// Distance propagates within the same cluster.
			if owner[w] == owner[u] && dist[w] > dist[u]+1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Component is one connected component of some G(i,k): a color-i cluster
// enlarged by its k-neighborhood.
type Component struct {
	Color int
	// Sub is the induced subgraph and Orig the mapping back to g's IDs.
	Sub  *graph.Graph
	Orig []graph.NodeID
}

// Components materializes the G(i,k) components of Lemma 9: for every
// cluster, its members enlarged by a k-neighborhood BFS in g, split into
// connected components of the induced subgraph.
func (d *Decomposition) Components(g *graph.Graph, k int) []Component {
	var out []Component
	n := g.NumNodes()
	mark := make([]bool, n)
	var queue, nextQ []graph.NodeID
	for _, cl := range d.Clusters {
		// BFS to depth k from all members.
		touched := make([]graph.NodeID, 0, len(cl.Members)*2)
		queue = queue[:0]
		for _, v := range cl.Members {
			if !mark[v] {
				mark[v] = true
				touched = append(touched, v)
				queue = append(queue, v)
			}
		}
		for depth := 0; depth < k; depth++ {
			nextQ = nextQ[:0]
			for _, u := range queue {
				for _, w := range g.Neighbors(u) {
					if !mark[w] {
						mark[w] = true
						touched = append(touched, w)
						nextQ = append(nextQ, w)
					}
				}
			}
			queue, nextQ = nextQ, queue
		}
		keep := make([]bool, n)
		for _, v := range touched {
			keep[v] = true
			mark[v] = false // reset for the next cluster
		}
		sub, orig := g.InducedSubgraph(keep)
		comp, num := sub.ConnectedComponents()
		for c := 0; c < num; c++ {
			keepC := make([]bool, sub.NumNodes())
			for v := range keepC {
				keepC[v] = comp[v] == int32(c)
			}
			subC, origC := sub.InducedSubgraph(keepC)
			mapped := make([]graph.NodeID, len(origC))
			for i, v := range origC {
				mapped[i] = orig[v]
			}
			out = append(out, Component{Color: cl.Color, Sub: subC, Orig: mapped})
		}
	}
	return out
}
