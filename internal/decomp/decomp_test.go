package decomp

import (
	"testing"

	"repro/internal/graph"
)

func checkDecomposition(t *testing.T, g *graph.Graph, k int, d *Decomposition) {
	t.Helper()
	n := g.NumNodes()
	// (1) Coverage.
	for v := 0; v < n; v++ {
		if !d.Covered[v] {
			t.Fatalf("node %d uncovered", v)
		}
	}
	inCluster := make([]bool, n)
	for _, cl := range d.Clusters {
		for _, v := range cl.Members {
			inCluster[v] = true
		}
	}
	for v := 0; v < n; v++ {
		if !inCluster[v] {
			t.Fatalf("node %d in no cluster despite Covered", v)
		}
	}
	// (2) Same-color clusters at distance ≥ k+1: multi-source BFS per
	// cluster, capped at k, must not touch another same-color cluster.
	for ci, cl := range d.Clusters {
		dist := make([]int32, n)
		for i := range dist {
			dist[i] = -1
		}
		queue := make([]graph.NodeID, 0, len(cl.Members))
		for _, v := range cl.Members {
			dist[v] = 0
			queue = append(queue, v)
		}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if int(dist[u]) >= k {
				continue
			}
			for _, w := range g.Neighbors(u) {
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		for cj, other := range d.Clusters {
			if cj == ci || other.Color != cl.Color {
				continue
			}
			for _, v := range other.Members {
				if dist[v] >= 0 && int(dist[v]) <= k {
					t.Fatalf("same-color clusters %d and %d at distance %d ≤ k=%d",
						ci, cj, dist[v], k)
				}
			}
		}
	}
	// (3) Weak diameter bound O(k log n): distances within a cluster
	// (measured in g) at most 2·Delta.
	for ci, cl := range d.Clusters {
		if len(cl.Members) == 0 {
			t.Fatalf("cluster %d empty", ci)
		}
		dist := g.BFSDistances(cl.Members[0])
		for _, v := range cl.Members {
			if dist[v] < 0 || int(dist[v]) > 2*d.Delta {
				t.Fatalf("cluster %d: member %d at distance %d > 2Δ=%d",
					ci, v, dist[v], 2*d.Delta)
			}
		}
	}
}

func TestDecomposeSmallGraphs(t *testing.T) {
	rng := graph.NewRand(1)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"cycle", graph.Cycle(40), 2},
		{"path", graph.Path(60), 3},
		{"gnm", graph.Gnm(150, 300, rng), 2},
		{"tree", graph.Tree(120, rng), 4},
		{"grid", graph.Grid(8, 8), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Decompose(tc.g, tc.k, 7)
			if err != nil {
				t.Fatal(err)
			}
			checkDecomposition(t, tc.g, tc.k, d)
			if d.Rounds <= 0 {
				t.Fatal("no distributed cost accounted")
			}
		})
	}
}

func TestDecomposeValidation(t *testing.T) {
	if _, err := Decompose(graph.Cycle(4), 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	d, err := Decompose(graph.NewBuilder(0).Build(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Clusters) != 0 {
		t.Fatal("clusters on empty graph")
	}
}

// Lemma 9's key property: any C_{2k} (diameter ≤ k) is fully contained in
// at least one component of some G(i,k).
func TestComponentsContainShortCycles(t *testing.T) {
	rng := graph.NewRand(5)
	for trial := 0; trial < 10; trial++ {
		k := 2 + int(rng.Int32N(2))
		g, cyc, err := graph.PlantedLight(200, 2*k, 1.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Decomposition parameter 2k+1, as in the Lemma 9 construction.
		d, err := Decompose(g, 2*k+1, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		comps := d.Components(g, 2*k)
		containing := 0
		for _, c := range comps {
			present := make(map[graph.NodeID]bool, len(c.Orig))
			for _, v := range c.Orig {
				present[v] = true
			}
			all := true
			for _, v := range cyc {
				if !present[v] {
					all = false
					break
				}
			}
			if all {
				containing++
			}
		}
		if containing == 0 {
			t.Fatalf("trial %d: planted C_%d in no component", trial, 2*k)
		}
	}
}

// Component subgraphs must be induced: edges inside a component exist in g
// and vice versa for contained vertex pairs.
func TestComponentsAreInducedSubgraphs(t *testing.T) {
	rng := graph.NewRand(9)
	g := graph.Gnm(100, 200, rng)
	d, err := Decompose(g, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Components(g, 2) {
		for v := 0; v < c.Sub.NumNodes(); v++ {
			for _, w := range c.Sub.Neighbors(graph.NodeID(v)) {
				if !g.HasEdge(c.Orig[v], c.Orig[w]) {
					t.Fatalf("component edge {%d,%d} missing in g", c.Orig[v], c.Orig[w])
				}
			}
		}
		for i := 0; i < len(c.Orig); i++ {
			for j := i + 1; j < len(c.Orig); j++ {
				if g.HasEdge(c.Orig[i], c.Orig[j]) != c.Sub.HasEdge(graph.NodeID(i), graph.NodeID(j)) {
					t.Fatalf("induced property violated for {%d,%d}", c.Orig[i], c.Orig[j])
				}
			}
		}
		if _, num := c.Sub.ConnectedComponents(); num != 1 && c.Sub.NumNodes() > 0 {
			t.Fatal("component not connected")
		}
	}
}

// Larger separation parameters (the quantum pipeline uses 2·|V(H)|+2, i.e.
// up to ~18 for C_8) must still produce valid decompositions.
func TestDecomposeLargeSeparation(t *testing.T) {
	rng := graph.NewRand(77)
	g := graph.Gnm(400, 800, rng)
	for _, k := range []int{10, 18} {
		d, err := Decompose(g, k, 5)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		checkDecomposition(t, g, k, d)
	}
}
