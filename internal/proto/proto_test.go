package proto

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

func TestBFSTreeDepthsMatchBFS(t *testing.T) {
	rng := graph.NewRand(1)
	g := graph.Gnm(300, 900, rng)
	net := congest.NewNetwork(g, 1)
	e := congest.NewEngine(net)
	tree, rep, err := BuildTree(e, 0)
	if err != nil {
		t.Fatalf("BuildTree: %v", err)
	}
	want := g.BFSDistances(0)
	for v := 0; v < g.NumNodes(); v++ {
		if tree.Depth[v] != want[v] {
			t.Fatalf("node %d depth %d, want %d", v, tree.Depth[v], want[v])
		}
	}
	// Parent pointers must decrease depth by one.
	for v := 0; v < g.NumNodes(); v++ {
		p := tree.Parent[v]
		if p < 0 {
			continue
		}
		if tree.Depth[v] != tree.Depth[p]+1 {
			t.Fatalf("node %d: depth %d but parent depth %d", v, tree.Depth[v], tree.Depth[p])
		}
		if !g.HasEdge(graph.NodeID(v), p) {
			t.Fatalf("parent edge {%d,%d} not in graph", v, p)
		}
	}
	if rep.Rounds < tree.MaxDepth() {
		t.Fatalf("rounds %d < depth %d", rep.Rounds, tree.MaxDepth())
	}
}

func TestBFSTreeChildrenCounts(t *testing.T) {
	g := graph.Star(6)
	net := congest.NewNetwork(g, 1)
	tree, _, err := BuildTree(congest.NewEngine(net), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Children[0] != 6 {
		t.Fatalf("hub children = %d, want 6", tree.Children[0])
	}
	for v := 1; v <= 6; v++ {
		if tree.Children[v] != 0 {
			t.Fatalf("leaf %d children = %d", v, tree.Children[v])
		}
	}
}

func TestConvergecastOr(t *testing.T) {
	rng := graph.NewRand(2)
	g := graph.Gnm(200, 500, rng)
	net := congest.NewNetwork(g, 2)
	e := congest.NewEngine(net)
	tree, _, err := BuildTree(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := g.ConnectedComponents()

	for _, tc := range []struct {
		name string
		set  []int // nodes whose value is true
		want bool
	}{
		{"none", nil, false},
		{"root-only", []int{0}, true},
		{"far-node", []int{findInComponent(comp, comp[0], 0)}, true},
	} {
		c := &ConvergecastOr{Tree: tree, Value: make([]bool, g.NumNodes())}
		for _, v := range tc.set {
			c.Value[v] = true
		}
		if _, err := e.Run(c); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.Result != tc.want {
			t.Fatalf("%s: Result = %v, want %v", tc.name, c.Result, tc.want)
		}
	}
}

// findInComponent returns the highest-ID node in the given component (a
// node "far" in ID space from the root).
func findInComponent(comp []int32, target int32, fallback int) int {
	best := fallback
	for v, c := range comp {
		if c == target {
			best = v
		}
	}
	return best
}

func TestConvergecastOrDeep(t *testing.T) {
	g := graph.Path(50)
	net := congest.NewNetwork(g, 3)
	e := congest.NewEngine(net)
	tree, _, err := BuildTree(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := &ConvergecastOr{Tree: tree, Value: make([]bool, 50)}
	c.Value[49] = true
	rep, err := e.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Result {
		t.Fatal("OR lost along a deep path")
	}
	if rep.Rounds < 48 {
		t.Fatalf("convergecast on P_50 took %d rounds, want ≈ depth 49", rep.Rounds)
	}
}
