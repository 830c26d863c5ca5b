package core

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestParamsFaithfulValues(t *testing.T) {
	p, err := NewParams(10000, 2, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.EpsHat-math.Log(9)) > 1e-9 {
		t.Fatalf("EpsHat = %v, want ln 9", p.EpsHat)
	}
	// p = ε̂·2k²/n^{1/k} = ln9·8/100
	wantP := math.Log(9) * 8 / 100
	if math.Abs(p.P-wantP) > 1e-9 {
		t.Fatalf("P = %v, want %v", p.P, wantP)
	}
	// τ = k·2^k·n·p
	wantTau := 2.0 * 4 * 10000 * wantP
	if p.Tau != int(math.Ceil(wantTau)) {
		t.Fatalf("Tau = %d, want %v", p.Tau, wantTau)
	}
	if p.LightMax != 100 {
		t.Fatalf("LightMax = %d, want 100", p.LightMax)
	}
	// K = ε̂·(2k)^{2k} = ln9·256
	if want := int(math.Ceil(math.Log(9) * 256)); p.Iterations != want {
		t.Fatalf("Iterations = %d, want %d", p.Iterations, want)
	}
	if p.BudgetRounds() <= 0 {
		t.Fatal("BudgetRounds not positive")
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := NewParams(100, 1, 0.3); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewParams(1, 2, 0.3); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewParams(100, 2, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewParams(100, 2, 1); err == nil {
		t.Error("eps=1 accepted")
	}
	if _, err := NewParams(100, 2, math.NaN()); err == nil {
		t.Error("eps=NaN accepted")
	}
	if _, err := NewParams(100, 64, 0.3); err == nil {
		t.Error("k=64 accepted: cycle length 128 exceeds the int8 colors")
	}
	if _, err := NewColorBFS(4, ColorBFSSpec{
		L: 129, Color: make([]int8, 4), InH: make([]bool, 4), InX: make([]bool, 4),
		Threshold: 1, SeedProb: 1,
	}); err == nil {
		t.Error("color-BFS with L=129 accepted")
	}
}

// TestParamsTauSaturates pins that τ = k·2^k·n·p, past 2^63 for large
// k, saturates at math.MaxInt instead of wrapping to a negative
// threshold.
func TestParamsTauSaturates(t *testing.T) {
	p, err := NewParams(60, 60, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tau != math.MaxInt {
		t.Fatalf("Tau = %d at k=60, want math.MaxInt", p.Tau)
	}
	p.ApplyP(1)
	if p.Tau != math.MaxInt {
		t.Fatalf("Tau = %d after ApplyP(1) at k=60, want math.MaxInt", p.Tau)
	}
	if p, err = NewParams(60, 63, 1.0/3); err != nil || p.Tau != math.MaxInt {
		t.Fatalf("k=63 (the largest): Tau = %d, err %v", p.Tau, err)
	}
}

func TestParamsCapsProbability(t *testing.T) {
	p, err := NewParams(4, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if p.P > 1 {
		t.Fatalf("P = %v > 1", p.P)
	}
}

func TestDetectEvenCycleFindsPlantedC4(t *testing.T) {
	rng := graph.NewRand(100)
	g, _, err := graph.PlantedLight(150, 4, 2.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectEvenCycle(g, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("planted C_4 missed after %d iterations", res.Iterations)
	}
	if err := graph.IsSimpleCycle(g, res.Witness, 4); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
	if res.Rounds == 0 || res.Messages == 0 {
		t.Fatalf("metrics empty: %+v", res)
	}
}

func TestDetectEvenCycleFindsPlantedC6(t *testing.T) {
	rng := graph.NewRand(200)
	g, _, err := graph.PlantedLight(60, 6, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectEvenCycle(g, 3, Options{Seed: 3, MaxIterations: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("planted C_6 missed after %d iterations", res.Iterations)
	}
	if err := graph.IsSimpleCycle(g, res.Witness, 6); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
}

// Heavy case: the planted cycle passes through a hub whose degree exceeds
// n^{1/2}, so the cycle is not inside G[U]; detection must come from the S-
// or W-based calls.
func TestDetectEvenCycleFindsHeavyCycle(t *testing.T) {
	rng := graph.NewRand(300)
	g, cyc, err := graph.PlantedHeavy(300, 4, 60, 1.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(cyc[0]) <= int(math.Sqrt(float64(g.NumNodes()))) {
		t.Fatalf("test setup: hub degree %d not heavy", g.Degree(cyc[0]))
	}
	res, err := DetectEvenCycle(g, 2, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("heavy planted C_4 missed after %d iterations", res.Iterations)
	}
	if err := graph.IsSimpleCycle(g, res.Witness, 4); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
}

// One-sidedness: on graphs of girth > 2k, Algorithm 1 must never report
// Found, for any seed. This is the paper's "acceptance without error".
func TestDetectEvenCycleOneSided(t *testing.T) {
	rng := graph.NewRand(400)
	g := graph.HighGirth(120, 150, 4, rng) // girth ≥ 5: no C_4
	for seed := uint64(0); seed < 5; seed++ {
		res, err := DetectEvenCycle(g, 2, Options{Seed: seed, MaxIterations: 40})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatalf("seed %d: false positive on girth-5 graph: %v", seed, res.Witness)
		}
	}
}

func TestDetectEvenCycleOneSidedOnTrees(t *testing.T) {
	rng := graph.NewRand(500)
	g := graph.Tree(200, rng)
	res, err := DetectEvenCycle(g, 3, Options{Seed: 1, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("false positive on a tree")
	}
}

// The detection rate over many planted instances must be high once the
// faithful iteration count is used (k=2 keeps it affordable).
func TestDetectEvenCycleDetectionRate(t *testing.T) {
	rng := graph.NewRand(600)
	found := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		g, _, err := graph.PlantedLight(80, 4, 1.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DetectEvenCycle(g, 2, Options{Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			found++
		}
	}
	if found < trials*2/3 {
		t.Fatalf("detection rate %d/%d below 2/3", found, trials)
	}
}

func TestDetectEvenCycleRejectsBadK(t *testing.T) {
	g := graph.Cycle(6)
	if _, err := DetectEvenCycle(g, 1, Options{}); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestDetectEvenCyclePipelined(t *testing.T) {
	rng := graph.NewRand(700)
	g, _, err := graph.PlantedLight(120, 4, 2.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectEvenCycle(g, 2, Options{Seed: 2, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("pipelined mode missed planted C_4 (%d iterations)", res.Iterations)
	}
	if err := graph.IsSimpleCycle(g, res.Witness, 4); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
}

// The sets protocol: sizes concentrate around their expectations and W
// captures heavy nodes.
func TestSetsConstruction(t *testing.T) {
	rng := graph.NewRand(800)
	g, cyc, err := graph.PlantedHeavy(400, 4, 80, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectEvenCycle(g, 2, Options{Seed: 9, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(g.NumNodes())
	expS := res.Params.P * n
	if float64(res.SizeS) < expS/3 || float64(res.SizeS) > expS*3 {
		t.Fatalf("|S| = %d, expected ≈ %.1f", res.SizeS, expS)
	}
	if res.SizeU == 0 {
		t.Fatal("no light nodes in a sparse graph")
	}
	// The hub has degree ≥ 80 ≥ n^{1/2}=20 and P ≈ ln9·8/20 ≈ 0.88 → it is
	// essentially surely in S or W.
	hub := cyc[0]
	_ = hub
	if res.SizeS+res.SizeW == 0 {
		t.Fatal("S and W both empty despite p close to 1")
	}
}
