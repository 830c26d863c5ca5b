package core

import (
	"testing"

	"repro/internal/graph"
)

func TestDetectBoundedFindsTriangle(t *testing.T) {
	rng := graph.NewRand(10)
	g, _, err := graph.PlantCycle(graph.HighGirth(100, 110, 8, rng), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectBoundedCycle(g, 2, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("planted C_3 missed (%d iterations)", res.Iterations)
	}
	if res.FoundLen > 4 {
		t.Fatalf("FoundLen = %d, want ≤ 4", res.FoundLen)
	}
	if err := graph.IsSimpleCycle(g, res.Witness, res.FoundLen); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
}

func TestDetectBoundedFindsC4(t *testing.T) {
	rng := graph.NewRand(20)
	g, _, err := graph.PlantCycle(graph.Tree(150, rng), 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectBoundedCycle(g, 2, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("planted C_4 missed (%d iterations)", res.Iterations)
	}
	if err := graph.IsSimpleCycle(g, res.Witness, res.FoundLen); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
}

func TestDetectBoundedFindsC5ViaSkip(t *testing.T) {
	rng := graph.NewRand(30)
	// Host with girth > 6 so the only short cycle is the planted C_5.
	g, _, err := graph.PlantCycle(graph.HighGirth(120, 140, 6, rng), 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectBoundedCycle(g, 3, Options{Seed: 11, MaxIterations: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("planted C_5 missed (%d iterations)", res.Iterations)
	}
	if res.FoundLen < 3 || res.FoundLen > 6 {
		t.Fatalf("FoundLen = %d outside [3,6]", res.FoundLen)
	}
	if err := graph.IsSimpleCycle(g, res.Witness, res.FoundLen); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
}

// One-sidedness: a graph of girth > 2k yields no detection.
func TestDetectBoundedOneSided(t *testing.T) {
	rng := graph.NewRand(40)
	g := graph.HighGirth(120, 140, 6, rng) // girth ≥ 7 > 2k for k=3
	for seed := uint64(0); seed < 4; seed++ {
		res, err := DetectBoundedCycle(g, 3, Options{Seed: seed, MaxIterations: 25})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatalf("seed %d: false positive C_%d: %v", seed, res.FoundLen, res.Witness)
		}
	}
}

// The incidence graph of PG(2,q) has girth exactly 6: F_4 detection (k=2)
// must stay silent, while planting a C_4 flips it.
func TestDetectBoundedOnIncidenceGraph(t *testing.T) {
	g, err := graph.ProjectivePlaneIncidence(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectBoundedCycle(g, 2, Options{Seed: 5, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("false positive on C₄-free incidence graph: C_%d", res.FoundLen)
	}

	rng := graph.NewRand(50)
	planted, _, err := graph.PlantCycle(g, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err = DetectBoundedCycle(planted, 2, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("planted C_4 in incidence graph missed (%d iterations)", res.Iterations)
	}
}

// k=4 exercises multiple length pairs in one run: the ℓ=2 pair runs dry on
// a girth-8 host, then the ℓ=3 pair catches the planted C_5 via the merged
// skip mode. (Planting C_7 directly would need ≈(2k)^{2k} ≈ 10⁶ colorings
// per hit — the ℓ=4 pair's machinery is identical, so ℓ=3 suffices.)
func TestDetectBoundedK4MultiPair(t *testing.T) {
	rng := graph.NewRand(60)
	g, _, err := graph.PlantCycle(graph.HighGirth(120, 140, 8, rng), 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectBoundedCycle(g, 4, Options{Seed: 13, MaxIterations: 25000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("planted C_5 missed (%d iterations)", res.Iterations)
	}
	// Planted chords can create incidental shorter cycles; anything ≤ 6
	// is a legitimate find, but it must verify.
	if res.FoundLen < 3 || res.FoundLen > 6 {
		t.Fatalf("FoundLen = %d outside [3,6]", res.FoundLen)
	}
	if err := graph.IsSimpleCycle(g, res.Witness, res.FoundLen); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
	// The run must have consumed the ℓ=2 pair's budget before finding.
	if res.Iterations <= 25000 {
		t.Fatalf("Iterations = %d: expected the ℓ=2 pair's full budget plus ℓ=3 work", res.Iterations)
	}
}

func TestDetectBoundedEarlyPairWins(t *testing.T) {
	rng := graph.NewRand(61)
	// A triangle present: the ℓ=2 pair must catch it before ℓ=3 ever runs
	// (FoundLen ≤ 4).
	g, _, err := graph.PlantCycle(graph.Tree(100, rng), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectBoundedCycle(g, 4, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.FoundLen > 4 {
		t.Fatalf("res = %+v, want the ℓ=2 pair to fire first", res)
	}
}
