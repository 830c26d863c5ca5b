package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestCanonicalCycleRotationsAgree(t *testing.T) {
	base := []graph.NodeID{5, 2, 9, 1, 7, 3}
	want := CanonicalCycle(base)
	n := len(base)
	for r := 0; r < n; r++ {
		rot := append(append([]graph.NodeID{}, base[r:]...), base[:r]...)
		got := CanonicalCycle(rot)
		if !eqSeq(got, want) {
			t.Fatalf("rotation %d canonicalizes to %v, want %v", r, got, want)
		}
		// Reflections too.
		rev := make([]graph.NodeID, n)
		for i := range rot {
			rev[i] = rot[n-1-i]
		}
		got = CanonicalCycle(rev)
		if !eqSeq(got, want) {
			t.Fatalf("reflection of rotation %d canonicalizes to %v, want %v", r, got, want)
		}
	}
	if CanonicalCycle(nil) != nil {
		t.Fatal("empty input")
	}
}

func eqSeq(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: canonical forms start at the minimum vertex and are invariant
// under random rotation+reflection.
func TestCanonicalCycleQuick(t *testing.T) {
	f := func(raw []uint8, rot uint8, flip bool) bool {
		if len(raw) < 3 {
			return true
		}
		// Build a duplicate-free vertex sequence.
		seen := map[graph.NodeID]bool{}
		var verts []graph.NodeID
		for _, r := range raw {
			v := graph.NodeID(r)
			if !seen[v] {
				seen[v] = true
				verts = append(verts, v)
			}
		}
		if len(verts) < 3 {
			return true
		}
		want := CanonicalCycle(verts)
		if len(want) == 0 || want[0] != minOf(verts) {
			return false
		}
		r := int(rot) % len(verts)
		turned := append(append([]graph.NodeID{}, verts[r:]...), verts[:r]...)
		if flip {
			for i, j := 0, len(turned)-1; i < j; i, j = i+1, j-1 {
				turned[i], turned[j] = turned[j], turned[i]
			}
		}
		return eqSeq(CanonicalCycle(turned), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func minOf(v []graph.NodeID) graph.NodeID {
	m := v[0]
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

func TestListEvenCyclesFindsAllPlanted(t *testing.T) {
	// Two disjoint C_4s in an otherwise empty graph: listing must find
	// exactly both.
	b := graph.NewBuilder(12)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%4))
		b.AddEdge(graph.NodeID(4+i), graph.NodeID(4+(i+1)%4))
	}
	g := b.Build()
	res, err := ListEvenCycles(g, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cycles) != 2 {
		t.Fatalf("listed %d cycles, want 2: %v", len(res.Cycles), res.Cycles)
	}
	for _, c := range res.Cycles {
		if err := graph.IsSimpleCycle(g, c, 4); err != nil {
			t.Fatalf("listed cycle invalid: %v", err)
		}
	}
	// Canonical and sorted.
	if res.Cycles[0][0] != 0 || res.Cycles[1][0] != 4 {
		t.Fatalf("cycles not canonical/sorted: %v", res.Cycles)
	}
}

func TestListEvenCyclesDedupes(t *testing.T) {
	// A single C_4 run with many iterations must still be listed once.
	g := graph.Cycle(4)
	res, err := ListEvenCycles(g, 2, Options{Seed: 1, MaxIterations: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cycles) != 1 {
		t.Fatalf("listed %d cycles, want 1", len(res.Cycles))
	}
}

func TestListEvenCyclesAgainstExactEnumeration(t *testing.T) {
	// On K_{2,3} the 4-cycles are exactly the (3 choose 2) = 3 choices of
	// two right-side vertices.
	g := graph.CompleteBipartite(2, 3)
	res, err := ListEvenCycles(g, 2, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cycles) != 3 {
		t.Fatalf("listed %d cycles in K_{2,3}, want 3: %v", len(res.Cycles), res.Cycles)
	}
	for _, c := range res.Cycles {
		if err := graph.IsSimpleCycle(g, c, 4); err != nil {
			t.Fatalf("invalid: %v", err)
		}
	}
}

func TestListEvenCyclesEmptyOnFreeGraph(t *testing.T) {
	rng := graph.NewRand(8)
	g := graph.HighGirth(80, 100, 4, rng)
	res, err := ListEvenCycles(g, 2, Options{Seed: 2, MaxIterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cycles) != 0 {
		t.Fatalf("listed cycles on a C_4-free graph: %v", res.Cycles)
	}
}

// Listing is Algorithm 1 that keeps every collision: on the same seed it
// costs exactly what DetectEvenCycle with KeepGoing costs, over as many
// iterations, and lists the detector's witness.
func TestListingMatchesKeepGoingDetection(t *testing.T) {
	found := 0
	for _, tc := range []struct {
		n, k int
		seed uint64
	}{{120, 2, 1}, {200, 2, 2}, {300, 2, 3}, {120, 3, 4}, {200, 3, 5}} {
		host := graph.Gnm(tc.n, 2*tc.n, graph.NewRand(tc.seed))
		g, _, err := graph.PlantCycle(host, 2*tc.k, graph.NewRand(tc.seed+100))
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Seed: tc.seed, MaxIterations: 24, POverride: 0.5}
		list, err := ListEvenCycles(g, tc.k, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.KeepGoing = true
		det, err := DetectEvenCycle(g, tc.k, opt)
		if err != nil {
			t.Fatal(err)
		}
		if list.Costs != det.Costs || list.Iterations != det.Iterations {
			t.Fatalf("n=%d k=%d: listing %+v over %d iterations, detection %+v over %d",
				tc.n, tc.k, list.Costs, list.Iterations, det.Costs, det.Iterations)
		}
		if !det.Found {
			continue
		}
		found++
		want := CanonicalCycle(det.Witness)
		if !slices.ContainsFunc(list.Cycles, func(c []graph.NodeID) bool { return slices.Equal(c, want) }) {
			t.Fatalf("n=%d k=%d: detector's witness %v not among the %d listed cycles", tc.n, tc.k, want, len(list.Cycles))
		}
	}
	if found == 0 {
		t.Fatal("no instance detected a cycle; the witness check exercised nothing")
	}
}
