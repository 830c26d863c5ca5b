package graph

import (
	"fmt"
	"math/rand/v2"
)

// PlantCycle returns a copy of host with a simple cycle of length L planted
// on L random distinct vertices, together with the cycle's vertex sequence.
// The host keeps all of its edges; the planted cycle guarantees that the
// result contains C_L (it may of course contain other cycles too).
func PlantCycle(host *Graph, L int, rng *rand.Rand) (*Graph, []NodeID, error) {
	n := host.NumNodes()
	if L > n {
		return nil, nil, fmt.Errorf("graph: cannot plant C_%d in %d vertices", L, n)
	}
	perm := rng.Perm(n)
	cyc := make([]NodeID, L)
	for i := 0; i < L; i++ {
		cyc[i] = NodeID(perm[i])
	}
	b := NewBuilderCap(n, host.NumEdges()+L)
	for _, e := range host.Edges() {
		b.AddEdge(e[0], e[1])
	}
	for i := 0; i < L; i++ {
		b.AddEdge(cyc[i], cyc[(i+1)%L])
	}
	return b.Build(), cyc, nil
}

// PlantedLight returns a sparse graph on n vertices with average degree
// avgDeg and a planted C_L whose vertices all keep low degree (the "light"
// case of Algorithm 1: every cycle vertex has degree ≤ n^{1/k} for the
// typical parameterizations used in the experiments).
func PlantedLight(n, L int, avgDeg float64, rng *rand.Rand) (*Graph, []NodeID, error) {
	m := int(avgDeg * float64(n) / 2)
	host := Gnm(n, m, rng)
	return PlantCycle(host, L, rng)
}

// PlantedHeavy returns a graph on (at least) n vertices containing a planted
// C_L through a hub vertex of degree ≥ hubDeg (leaves are attached to the
// hub), embedded in a sparse background graph. This exercises the
// heavy-cycle cases (Cases 2 and 3) of Algorithm 1's analysis: the hub has
// degree exceeding n^{1/k} so the cycle is not contained in G[U].
func PlantedHeavy(n, L, hubDeg int, avgDeg float64, rng *rand.Rand) (*Graph, []NodeID, error) {
	if n < L+hubDeg {
		n = L + hubDeg
	}
	m := int(avgDeg * float64(n) / 2)
	host := Gnm(n, m, rng)
	g, cyc, err := PlantCycle(host, L, rng)
	if err != nil {
		return nil, nil, err
	}
	hub := cyc[0]
	b := NewBuilderCap(n, g.NumEdges()+hubDeg)
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	// Raise the hub's degree by connecting it to hubDeg random vertices
	// outside the cycle.
	onCycle := make(map[NodeID]struct{}, L)
	for _, v := range cyc {
		onCycle[v] = struct{}{}
	}
	added := 0
	for attempt := 0; added < hubDeg && attempt < 20*hubDeg+100; attempt++ {
		v := NodeID(rng.Int32N(int32(n)))
		if v == hub {
			continue
		}
		if _, on := onCycle[v]; on {
			continue
		}
		if g.HasEdge(hub, v) {
			continue
		}
		b.AddEdge(hub, v)
		added++
	}
	return b.Build(), cyc, nil
}

// HighGirth returns a graph on n vertices with up to m edges and girth
// strictly greater than minGirth: edges are inserted only when the two
// endpoints are currently at distance ≥ minGirth, so every created cycle has
// length ≥ minGirth+1. These are the guaranteed C_ℓ-free (ℓ ≤ minGirth)
// instances for false-positive experiments.
func HighGirth(n, m, minGirth int, rng *rand.Rand) *Graph {
	adj := make([][]int32, n)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	edges := make([][2]NodeID, 0, m)
	// Bounded BFS over the dynamic adjacency structure. The queue keeps
	// every vertex the search labelled, so the next search resets only
	// those, not all n.
	farEnough := func(u, v int32) bool {
		for _, x := range queue {
			dist[x] = -1
		}
		dist[u] = 0
		queue = append(queue[:0], u)
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			if int(dist[x]) >= minGirth-1 {
				continue
			}
			for _, w := range adj[x] {
				if dist[w] < 0 {
					if w == v {
						return false
					}
					dist[w] = dist[x] + 1
					queue = append(queue, w)
				}
			}
		}
		return true
	}
	attempts := 0
	for len(edges) < m && attempts < 50*m+1000 {
		attempts++
		u := rng.Int32N(int32(n))
		v := rng.Int32N(int32(n))
		if u == v {
			continue
		}
		if !farEnough(u, v) {
			continue
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		edges = append(edges, [2]NodeID{u, v})
	}
	return FromEdges(n, edges)
}
