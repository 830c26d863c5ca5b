package graph

import (
	"math/rand/v2"
	"testing"
)

// unionChained is the pairwise O(B²) reference the single-pass
// UnionTagged replaces.
func unionChained(gs []*Graph) *Graph {
	acc := &Graph{}
	for _, g := range gs {
		acc = Union(acc, g)
	}
	return acc
}

func randomTestGraphs(t *testing.T, rng *rand.Rand, count int) []*Graph {
	t.Helper()
	gs := make([]*Graph, count)
	for i := range gs {
		n := 2 + rng.IntN(40)
		m := rng.IntN(3 * n)
		gs[i] = Gnm(n, m, NewRand(rng.Uint64()))
	}
	return gs
}

func TestUnionNMatchesChainedUnion(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 60))
	for trial := 0; trial < 25; trial++ {
		gs := randomTestGraphs(t, rng, 1+rng.IntN(8))
		want := unionChained(gs)
		got, _ := UnionTagged(gs)
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: UnionTagged invalid: %v", trial, err)
		}
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("trial %d: size mismatch: got (%d,%d) want (%d,%d)",
				trial, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("trial %d: fingerprint mismatch vs chained Union", trial)
		}
	}
}

func TestUnionNEmptyAndSingle(t *testing.T) {
	if g, _ := UnionTagged(nil); g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("UnionTagged(nil) = (%d,%d), want empty", g.NumNodes(), g.NumEdges())
	}
	g := Gnm(17, 30, NewRand(99))
	u, _ := UnionTagged([]*Graph{g})
	if u.Fingerprint() != g.Fingerprint() {
		t.Fatal("UnionTagged of g alone differs from g")
	}
}

func TestUnionTaggedComponentMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 70))
	gs := randomTestGraphs(t, rng, 6)
	u, parts := UnionTagged(gs)
	if len(parts.Base) != len(gs) || len(parts.Comp) != u.NumNodes() {
		t.Fatalf("parts sized (%d,%d), want (%d,%d)", len(parts.Base), len(parts.Comp), len(gs), u.NumNodes())
	}
	for i, g := range gs {
		lo, hi := parts.Component(i)
		if int(hi-lo) != g.NumNodes() {
			t.Fatalf("component %d: range [%d,%d) for %d nodes", i, lo, hi, g.NumNodes())
		}
		for v := lo; v < hi; v++ {
			if parts.Comp[v] != int32(i) {
				t.Fatalf("Comp[%d] = %d, want %d", v, parts.Comp[v], i)
			}
		}
		// Every fused row is the input row shifted by the base offset.
		for v := 0; v < g.NumNodes(); v++ {
			gotRow := u.Neighbors(lo + int32(v))
			wantRow := g.Neighbors(int32(v))
			if len(gotRow) != len(wantRow) {
				t.Fatalf("component %d vertex %d: degree %d, want %d", i, v, len(gotRow), len(wantRow))
			}
			for j := range wantRow {
				if gotRow[j] != wantRow[j]+lo {
					t.Fatalf("component %d vertex %d: neighbor %d is %d, want %d",
						i, v, j, gotRow[j], wantRow[j]+lo)
				}
			}
		}
	}
}
