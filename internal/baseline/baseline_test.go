package baseline

import (
	"math"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
)

func TestLocalThresholdFindsPlantedC4(t *testing.T) {
	rng := graph.NewRand(1)
	g, _, err := graph.PlantedLight(100, 4, 1.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectLocalThreshold(g, 2, LocalThresholdOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("planted C_4 missed after %d attempts", res.Iterations)
	}
	if err := graph.IsSimpleCycle(g, res.Witness, 4); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
	// The local threshold caps congestion at τ (+1 before discard).
	if res.MaxCongestion > 17 {
		t.Fatalf("congestion %d exceeds τ=16", res.MaxCongestion)
	}
}

func TestLocalThresholdOneSided(t *testing.T) {
	g, err := graph.ProjectivePlaneIncidence(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectLocalThreshold(g, 2, LocalThresholdOptions{Seed: 1, Attempts: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("false positive on C₄-free incidence graph")
	}
}

func TestLocalThresholdTinyGraph(t *testing.T) {
	res, err := DetectLocalThreshold(graph.Path(3), 2, LocalThresholdOptions{})
	if err != nil || res.Found {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if _, err := DetectLocalThreshold(graph.Cycle(8), 1, LocalThresholdOptions{}); err == nil {
		t.Fatal("k=1 accepted")
	}
}

// trapGraph builds the A2 congestion trap for k=3: a C_6 = (u0,…,u5), a
// source s adjacent to u0, and `width` trap vertices adjacent to both s
// and u1. Trap vertices create only C_4s (irrelevant to C_6 detection, and
// no new C_6), but when s's neighborhood seeds the exploration, u1 — the
// cycle's mandatory relay — receives ≈ width/6 color-0 identifiers and a
// constant threshold discards them, killing the only C_6. This is the
// mechanism behind the [SIROCCO'23] impossibility for constant (local)
// thresholds; the global threshold τ(n) of Algorithm 1 is immune.
func trapGraph(width int) (*graph.Graph, graph.NodeID, []graph.NodeID) {
	b := graph.NewBuilder(7 + width)
	cyc := make([]graph.NodeID, 6)
	for i := range cyc {
		cyc[i] = graph.NodeID(i)
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%6))
	}
	s := graph.NodeID(6)
	b.AddEdge(s, cyc[0])
	for i := 0; i < width; i++ {
		tr := graph.NodeID(7 + i)
		b.AddEdge(s, tr)
		b.AddEdge(tr, cyc[1])
	}
	return b.Build(), s, cyc
}

// With a perfect coloring, the trap defeats any constant threshold while a
// large (global-style) threshold sails through — the core of experiment A2.
func TestTrapDefeatsConstantThreshold(t *testing.T) {
	g, s, cyc := trapGraph(60)
	if !graph.HasCycleLen(g, 6) {
		t.Fatal("test setup: no C_6")
	}
	n := g.NumNodes()
	colors := make([]int8, n) // traps all colored 0 (worst case)
	for i, v := range cyc {
		colors[v] = int8(i)
	}
	colors[s] = 5 // inert
	inX := make([]bool, n)
	for _, w := range g.Neighbors(s) {
		inX[w] = true // X = N(s), the local-threshold seed set
	}
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	run := func(tau int) bool {
		bfs, err := core.NewColorBFS(n, core.ColorBFSSpec{
			L: 6, Color: colors, InH: all, InX: inX, Threshold: tau, SeedProb: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		net := congest.NewNetwork(g, 1)
		if _, err := bfs.Run(congest.NewEngine(net)); err != nil {
			t.Fatal(err)
		}
		return len(bfs.Detections()) > 0
	}
	for _, tau := range []int{2, 4, 8, 16} {
		if run(tau) {
			t.Fatalf("constant threshold τ=%d detected through the trap (width 60)", tau)
		}
	}
	if !run(n) {
		t.Fatal("global threshold τ=n missed the cycle")
	}
}

// The same trap at driver level with a fixed source: a constant threshold
// detects (via lucky colorings that color few traps 0) strictly less often
// than the unconstrained threshold under an equal attempt budget.
func TestLocalThresholdTrapLowersDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical trap comparison skipped in -short mode")
	}
	g, s, _ := trapGraph(60)
	rate := func(tau int) int {
		found := 0
		for seed := uint64(0); seed < 3; seed++ {
			res, err := DetectLocalThreshold(g, 3, LocalThresholdOptions{
				Seed: seed, Tau: tau, Attempts: 20000,
				HasFixedSource: true, FixedSource: s,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Found {
				found++
			}
		}
		return found
	}
	constTau, bigTau := rate(4), rate(g.NumNodes())
	if constTau > bigTau {
		t.Fatalf("constant threshold found more often (%d vs %d)", constTau, bigTau)
	}
	if bigTau == 0 {
		t.Fatal("unconstrained threshold never detected (attempt budget too small?)")
	}
}

func TestKBallLearnsExactBall(t *testing.T) {
	rng := graph.NewRand(4)
	g := graph.Gnm(40, 80, rng)
	k := 3
	net := congest.NewNetwork(g, 1)
	eng := congest.NewEngine(net)
	proto := &kballProto{ttl0: int32(k - 1)}
	if _, err := eng.Run(proto); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		dist := g.BFSDistances(graph.NodeID(v))
		want := make(map[uint64]struct{})
		for _, e := range g.Edges() {
			if (dist[e[0]] >= 0 && int(dist[e[0]]) <= k-1) ||
				(dist[e[1]] >= 0 && int(dist[e[1]]) <= k-1) {
				want[edgeKey(e[0], e[1])] = struct{}{}
			}
		}
		got := proto.ball(graph.NodeID(v))
		for key := range want {
			if _, ok := got[key]; !ok {
				t.Fatalf("node %d missing ball edge %x", v, key)
			}
		}
		for key := range got {
			if _, ok := want[key]; !ok {
				t.Fatalf("node %d learned out-of-ball edge %x", v, key)
			}
		}
	}
}

func TestKBallDetects(t *testing.T) {
	rng := graph.NewRand(5)
	g, _, err := graph.PlantedLight(80, 6, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectKBall(g, 3, 1, congest.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("deterministic detector missed planted C_6")
	}
	if err := graph.IsSimpleCycle(g, res.Witness, 6); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
	if res.Rounds == 0 || res.MaxBallEdges == 0 {
		t.Fatalf("metrics empty: %+v", res)
	}

	free := graph.HighGirth(80, 100, 6, rng)
	res, err = DetectKBall(free, 3, 1, congest.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("false positive on girth>6 graph")
	}
}

// Round complexity of the deterministic detector scales with the ball
// volume — Θ(n) once some ball contains Θ(n) edges (hub/star instances),
// which is the Θ̃(n)-type behaviour of the deterministic row of Table 1.
// (On bounded-degree graphs the (k-1)-ball has O(1) edges and the flood is
// O(1) rounds; the Θ̃(n) lower bound concerns worst-case instances.)
func TestKBallRoundsGrowOnHubs(t *testing.T) {
	rounds := func(n int) int {
		// Star: the hub's n edges must transit every leaf's relay queue.
		res, err := DetectKBall(graph.Star(n), 3, 1, congest.Runtime{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	r1, r2 := rounds(100), rounds(400)
	ratio := float64(r2) / float64(r1)
	if ratio < 2.5 {
		t.Fatalf("rounds(400)/rounds(100) = %v (r1=%d r2=%d), want ≈ 4", ratio, r1, r2)
	}
}

func TestEdenExponents(t *testing.T) {
	for _, tc := range []struct {
		k    int
		want float64
	}{
		{4, 1 - 2.0/12}, // even: k²-2k+4 = 12
		{6, 1 - 2.0/28}, // even: 28
		{3, 1 - 2.0/8},  // odd: k²-k+2 = 8
		{7, 1 - 2.0/44}, // odd: 44
	} {
		got, err := EdenExponent(tc.k)
		if err != nil {
			t.Fatalf("k=%d: %v", tc.k, err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("k=%d: exponent %v, want %v", tc.k, got, tc.want)
		}
	}
	if _, err := EdenExponent(2); err == nil {
		t.Fatal("k=2 accepted")
	}
}

// The paper's headline improvement: for every k ≥ 6, 1-1/k beats the Eden
// et al. exponent; for k ≤ 5 Censor-Hillel et al. already had 1-1/k.
func TestThisPaperBeatsEdenForLargeK(t *testing.T) {
	for k := 3; k <= 12; k++ {
		eden, err := EdenExponent(k)
		if err != nil {
			t.Fatal(err)
		}
		ours := ThisPaperClassicalExponent(k)
		if k >= 4 && ours >= eden {
			t.Fatalf("k=%d: ours %v not better than Eden %v", k, ours, eden)
		}
	}
}

// The quantum improvement over van Apeldoorn–de Vos for bounded-length
// detection: 1/2-1/2k < 1/2-1/(4k+2) for all k ≥ 2.
func TestQuantumBeatsVanApeldoornDeVos(t *testing.T) {
	for k := 2; k <= 10; k++ {
		ours := ThisPaperQuantumExponent(k)
		theirs := VanApeldoornDeVosExponent(k)
		if ours >= theirs {
			t.Fatalf("k=%d: ours %v not better than [33] %v", k, ours, theirs)
		}
	}
}
