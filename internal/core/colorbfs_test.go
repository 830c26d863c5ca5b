package core

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

// perfectColoring colors a known cycle consecutively 0..L-1 and everything
// else with color L-1 (inert for seeding). Used to unit-test the color-BFS
// machinery without depending on coloring luck.
func perfectColoring(n int, cyc []graph.NodeID) []int8 {
	L := len(cyc)
	colors := make([]int8, n)
	for i := range colors {
		colors[i] = int8(L - 1)
	}
	for i, v := range cyc {
		colors[v] = int8(i)
	}
	return colors
}

func allTrue(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

func runColorBFS(t *testing.T, g *graph.Graph, spec ColorBFSSpec) (*ColorBFS, congest.Report) {
	t.Helper()
	bfs, err := NewColorBFS(g.NumNodes(), spec)
	if err != nil {
		t.Fatalf("NewColorBFS: %v", err)
	}
	net := congest.NewNetwork(g, 1)
	rep, err := bfs.Run(congest.NewEngine(net))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return bfs, rep
}

func TestColorBFSDetectsWellColoredEvenCycle(t *testing.T) {
	for _, L := range []int{4, 6, 8, 10} {
		for _, pipelined := range []bool{false, true} {
			g := graph.Cycle(L)
			cyc := make([]graph.NodeID, L)
			for i := range cyc {
				cyc[i] = graph.NodeID(i)
			}
			n := g.NumNodes()
			spec := ColorBFSSpec{
				L:         L,
				Color:     perfectColoring(n, cyc),
				InH:       allTrue(n),
				InX:       allTrue(n),
				Threshold: n,
				SeedProb:  1,
				Pipelined: pipelined,
			}
			bfs, rep := runColorBFS(t, g, spec)
			if len(bfs.Detections()) == 0 {
				t.Fatalf("L=%d pipelined=%v: no detection on perfectly colored C_%d", L, pipelined, L)
			}
			d := bfs.Detections()[0]
			if d.Node != graph.NodeID(L/2) {
				t.Errorf("L=%d: detector = %d, want %d", L, d.Node, L/2)
			}
			w, err := bfs.Witness(d)
			if err != nil {
				t.Fatalf("L=%d: witness: %v", L, err)
			}
			if err := graph.IsSimpleCycle(g, w, L); err != nil {
				t.Fatalf("L=%d: invalid witness %v: %v", L, w, err)
			}
			if rep.Rounds == 0 {
				t.Errorf("L=%d: zero rounds", L)
			}
		}
	}
}

func TestColorBFSDetectsWellColoredOddCycle(t *testing.T) {
	for _, L := range []int{3, 5, 7, 9} {
		g := graph.Cycle(L)
		cyc := make([]graph.NodeID, L)
		for i := range cyc {
			cyc[i] = graph.NodeID(i)
		}
		n := g.NumNodes()
		spec := ColorBFSSpec{
			L:         L,
			Color:     perfectColoring(n, cyc),
			InH:       allTrue(n),
			InX:       allTrue(n),
			Threshold: n,
			SeedProb:  1,
		}
		bfs, _ := runColorBFS(t, g, spec)
		if len(bfs.Detections()) == 0 {
			t.Fatalf("L=%d: no detection on perfectly colored C_%d", L, L)
		}
		w, err := bfs.Witness(bfs.Detections()[0])
		if err != nil {
			t.Fatalf("L=%d: witness: %v", L, err)
		}
		if err := graph.IsSimpleCycle(g, w, L); err != nil {
			t.Fatalf("L=%d: invalid witness %v: %v", L, w, err)
		}
	}
}

// One-sidedness at the subroutine level: on a tree (no cycles at all), no
// coloring can make color-BFS detect anything.
func TestColorBFSNeverDetectsOnTree(t *testing.T) {
	rng := graph.NewRand(3)
	g := graph.Tree(120, rng)
	n := g.NumNodes()
	for trial := 0; trial < 40; trial++ {
		colors := make([]int8, n)
		for v := range colors {
			colors[v] = int8(rng.IntN(6))
		}
		spec := ColorBFSSpec{
			L:         6,
			Color:     colors,
			InH:       allTrue(n),
			InX:       allTrue(n),
			Threshold: n,
			SeedProb:  1,
		}
		bfs, _ := runColorBFS(t, g, spec)
		if len(bfs.Detections()) != 0 {
			t.Fatalf("trial %d: detection on a tree", trial)
		}
	}
}

// The threshold must silence congested forwarders: a star-of-seeds feeding
// one forwarder exceeds τ and the exploration dies there.
func TestColorBFSThresholdSilencesOverflow(t *testing.T) {
	// Construction: seeds s_1..s_10 all adjacent to forwarder f (color 1),
	// f adjacent to detector d (color 2), d adjacent to x (color 3), x
	// adjacent back to s_1 (color 0) — a C_4 through s_1, f(1), d(2), x(3).
	b := graph.NewBuilder(13)
	f, d, x := graph.NodeID(10), graph.NodeID(11), graph.NodeID(12)
	for s := graph.NodeID(0); s < 10; s++ {
		b.AddEdge(s, f)
	}
	b.AddEdge(f, d)
	b.AddEdge(d, x)
	b.AddEdge(x, 0)
	g := b.Build()
	n := g.NumNodes()
	colors := make([]int8, n) // all seeds color 0
	colors[f], colors[d], colors[x] = 1, 2, 3

	spec := ColorBFSSpec{
		L:         4,
		Color:     colors,
		InH:       allTrue(n),
		InX:       allTrue(n),
		Threshold: n,
		SeedProb:  1,
	}
	bfs, _ := runColorBFS(t, g, spec)
	if len(bfs.Detections()) == 0 {
		t.Fatal("unlimited threshold: cycle not found")
	}

	// With τ = 4, f receives 10 > 4 identifiers and must discard them all.
	spec.Threshold = 4
	bfs, _ = runColorBFS(t, g, spec)
	if !bfs.Overflowed() {
		t.Fatal("threshold 4: no overflow recorded")
	}
	if len(bfs.Detections()) != 0 {
		t.Fatal("threshold 4: detection despite overflow (batch mode must discard)")
	}
}

// Batch rounds scale with the forwarded set size (congestion → rounds).
func TestColorBFSRoundsTrackCongestion(t *testing.T) {
	mkStarCycle := func(seeds int) (*graph.Graph, []int8) {
		b := graph.NewBuilder(seeds + 3)
		f, d, x := graph.NodeID(seeds), graph.NodeID(seeds+1), graph.NodeID(seeds+2)
		for s := graph.NodeID(0); s < graph.NodeID(seeds); s++ {
			b.AddEdge(s, f)
		}
		b.AddEdge(f, d)
		b.AddEdge(d, x)
		b.AddEdge(x, 0)
		g := b.Build()
		colors := make([]int8, g.NumNodes())
		colors[f], colors[d], colors[x] = 1, 2, 3
		return g, colors
	}
	rounds := func(seeds int) int {
		g, colors := mkStarCycle(seeds)
		spec := ColorBFSSpec{
			L: 4, Color: colors, InH: allTrue(g.NumNodes()),
			InX: allTrue(g.NumNodes()), Threshold: g.NumNodes(), SeedProb: 1,
		}
		_, rep := runColorBFS(t, g, spec)
		return rep.Rounds
	}
	small, large := rounds(5), rounds(50)
	if large < small+40 {
		t.Fatalf("rounds small=%d large=%d: batch rounds do not track congestion", small, large)
	}
}

// The merged mode must find odd cycles C_{L-1}.
func TestColorBFSSkipModeFindsOddCycle(t *testing.T) {
	// C_5 = (0,1,2,3,4) colored 0,1,2,4,... wait: the merged mode colors
	// with L=6: ascending 0,1,2 then skip from color 4 to color 2's
	// predecessor. Build the coloring the detection needs: cycle
	// (u0,u1,u2,s4,u5) with colors 0,1,2,4,5: path 0→1→2 (ascending, ends
	// at color 2 = m-1), path 0→5→4 descending, and the skip edge 4→2.
	g := graph.Cycle(5)
	n := g.NumNodes()
	colors := []int8{0, 1, 2, 4, 5}
	spec := ColorBFSSpec{
		L:          6,
		Color:      colors,
		InH:        allTrue(n),
		InX:        allTrue(n),
		Threshold:  n,
		SeedProb:   1,
		DetectSkip: true,
	}
	bfs, _ := runColorBFS(t, g, spec)
	var skipDet *Detection
	for i := range bfs.Detections() {
		if bfs.Detections()[i].Skip {
			skipDet = &bfs.Detections()[i]
		}
	}
	if skipDet == nil {
		t.Fatal("no skip detection on well-colored C_5")
	}
	w, err := bfs.Witness(*skipDet)
	if err != nil {
		t.Fatalf("witness: %v", err)
	}
	if err := graph.IsSimpleCycle(g, w, 5); err != nil {
		t.Fatalf("invalid C_5 witness %v: %v", w, err)
	}
}

// Seeds outside X must not launch explorations.
func TestColorBFSRespectsSeedSet(t *testing.T) {
	g := graph.Cycle(6)
	n := g.NumNodes()
	cyc := []graph.NodeID{0, 1, 2, 3, 4, 5}
	inX := make([]bool, n) // empty X
	spec := ColorBFSSpec{
		L: 6, Color: perfectColoring(n, cyc), InH: allTrue(n),
		InX: inX, Threshold: n, SeedProb: 1,
	}
	bfs, rep := runColorBFS(t, g, spec)
	if len(bfs.Detections()) != 0 {
		t.Fatal("detection with empty seed set")
	}
	if rep.Messages != 0 {
		t.Fatalf("messages = %d with empty seed set", rep.Messages)
	}
}

// Exploration must stay inside H.
func TestColorBFSRespectsSubgraph(t *testing.T) {
	g := graph.Cycle(6)
	n := g.NumNodes()
	cyc := []graph.NodeID{0, 1, 2, 3, 4, 5}
	inH := allTrue(n)
	inH[4] = false // break the descending path 0→5→4→3
	spec := ColorBFSSpec{
		L: 6, Color: perfectColoring(n, cyc), InH: inH,
		InX: allTrue(n), Threshold: n, SeedProb: 1,
	}
	bfs, _ := runColorBFS(t, g, spec)
	if len(bfs.Detections()) != 0 {
		t.Fatal("detection escaped the induced subgraph H")
	}
}

// Algorithm 2's activation: with SeedProb ~ 0 nothing is sent.
func TestColorBFSSeedProbGates(t *testing.T) {
	g := graph.Cycle(6)
	n := g.NumNodes()
	cyc := []graph.NodeID{0, 1, 2, 3, 4, 5}
	spec := ColorBFSSpec{
		L: 6, Color: perfectColoring(n, cyc), InH: allTrue(n),
		InX: allTrue(n), Threshold: n, SeedProb: 1e-12,
	}
	bfs, rep := runColorBFS(t, g, spec)
	if len(bfs.Detections()) != 0 || rep.Messages != 0 {
		t.Fatalf("SeedProb≈0 still produced %d messages", rep.Messages)
	}
}

func TestNewColorBFSValidation(t *testing.T) {
	n := 4
	ok := ColorBFSSpec{
		L: 4, Color: make([]int8, n), InH: make([]bool, n),
		InX: make([]bool, n), Threshold: 1, SeedProb: 1,
	}
	if _, err := NewColorBFS(n, ok); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, mut := range map[string]func(*ColorBFSSpec){
		"short L":        func(s *ColorBFSSpec) { s.L = 2 },
		"bad arrays":     func(s *ColorBFSSpec) { s.Color = make([]int8, n-1) },
		"zero threshold": func(s *ColorBFSSpec) { s.Threshold = 0 },
		"bad prob":       func(s *ColorBFSSpec) { s.SeedProb = 1.5 },
		"skip odd L":     func(s *ColorBFSSpec) { s.L = 5; s.DetectSkip = true },
	} {
		bad := ok
		mut(&bad)
		if _, err := NewColorBFS(n, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Batch and pipelined schedules agree on what they find for a fixed
// coloring with no congestion pressure.
func TestBatchPipelinedAgree(t *testing.T) {
	rng := graph.NewRand(12)
	for trial := 0; trial < 10; trial++ {
		g, cyc, err := graph.PlantedLight(60, 6, 1.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		colors := perfectColoring(n, cyc)
		for _, pipelined := range []bool{false, true} {
			spec := ColorBFSSpec{
				L: 6, Color: colors, InH: allTrue(n), InX: allTrue(n),
				Threshold: n, SeedProb: 1, Pipelined: pipelined,
			}
			bfs, _ := runColorBFS(t, g, spec)
			if len(bfs.Detections()) == 0 {
				t.Fatalf("trial %d pipelined=%v: planted cycle missed", trial, pipelined)
			}
		}
	}
}
