package lowprob

import (
	"math"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
)

// The Lemma 12 detector must still be one-sided: on C_4-free graphs it
// never reports Found.
func TestDetectOneSided(t *testing.T) {
	g, err := graph.ProjectivePlaneIncidence(3) // girth 6, C_4-free
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 6; seed++ {
		res, err := Detect(g, 2, core.Options{Seed: seed, MaxIterations: 50})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatalf("seed %d: false positive", seed)
		}
	}
}

// Round complexity per run must be tiny (constant threshold 4, constant
// congestion) compared to the full-threshold detector.
func TestDetectConstantCongestion(t *testing.T) {
	rng := graph.NewRand(1)
	g, _, err := graph.PlantedLight(4000, 4, 2.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(g, 2, core.Options{Seed: 1, MaxIterations: 10, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	// Each forwarder relays at most 4+1 identifiers, so congestion must be
	// bounded by a constant regardless of n.
	if res.MaxCongestion > 16 {
		t.Fatalf("MaxCongestion = %d with constant threshold 4", res.MaxCongestion)
	}
	// 10 iterations × 3 calls × (k phases × ≤5 ids + overhead) — rounds
	// must be far below n.
	if res.Rounds > 1200 {
		t.Fatalf("Rounds = %d, want O(1) per iteration", res.Rounds)
	}
}

// With many repetitions (classical amplification) the low-probability
// detector does find planted cycles, and its witnesses verify.
func TestDetectEventuallyFinds(t *testing.T) {
	rng := graph.NewRand(2)
	g, _, err := graph.PlantedLight(40, 4, 1.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	// On n=40, τ ≈ k·2^k·n·p with p capped at 1 → activation 1/τ is small
	// but repetitions compensate.
	res, err := Detect(g, 2, core.Options{Seed: 7, MaxIterations: 250000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("low-prob detector never found planted C_4 in %d iterations", res.Iterations)
	}
	if err := graph.IsSimpleCycle(g, res.Witness, 4); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
}

func TestSuccessProbScales(t *testing.T) {
	p1, err := SuccessProb(1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := SuccessProb(100000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p1 <= p2 {
		t.Fatalf("success probability should shrink with n: %v vs %v", p1, p2)
	}
	// 1/(3τ) with τ = Θ(n^{1/2}·const) for k=2 → ratio ≈ (100)^{1/2} = 10.
	ratio := p1 / p2
	if ratio < 5 || ratio > 20 {
		t.Fatalf("p(1000)/p(100000) = %v, want ≈ 10 (τ ~ n^{1/2})", ratio)
	}
}

func TestDetectOddFindsTriangle(t *testing.T) {
	rng := graph.NewRand(3)
	g, _, err := graph.PlantCycle(graph.Tree(30, rng), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectOdd(g, 1, OddOptions{Seed: 3, MaxIterations: 100000, SeedProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("planted C_3 missed in %d iterations", res.Iterations)
	}
	if err := graph.IsSimpleCycle(g, res.Witness, 3); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
}

func TestDetectOddFindsC5(t *testing.T) {
	rng := graph.NewRand(4)
	g, _, err := graph.PlantCycle(graph.HighGirth(40, 45, 5, rng), 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectOdd(g, 2, OddOptions{Seed: 6, MaxIterations: 500000, SeedProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("planted C_5 missed in %d iterations", res.Iterations)
	}
	if err := graph.IsSimpleCycle(g, res.Witness, 5); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
}

func TestDetectOddOneSided(t *testing.T) {
	// Bipartite graphs have no odd cycles at all.
	g := graph.CompleteBipartite(8, 8)
	res, err := DetectOdd(g, 2, OddOptions{Seed: 1, MaxIterations: 3000, SeedProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("odd cycle detected in a bipartite graph")
	}
}

func TestDetectOddValidation(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := DetectOdd(g, 0, OddOptions{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	tiny := graph.Path(2)
	res, err := DetectOdd(tiny, 1, OddOptions{MaxIterations: 5})
	if err != nil || res.Found {
		t.Fatalf("tiny graph: res=%+v err=%v", res, err)
	}
}

func TestDetectBoundedLowProb(t *testing.T) {
	rng := graph.NewRand(5)
	g, _, err := graph.PlantCycle(graph.Tree(60, rng), 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectBounded(g, 2, core.Options{Seed: 2, MaxIterations: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("bounded low-prob detector missed planted C_4 (%d iterations)", res.Iterations)
	}
	if err := graph.IsSimpleCycle(g, res.Witness, res.FoundLen); err != nil {
		t.Fatalf("invalid witness: %v", err)
	}
}

func TestBoundedSuccessProbSane(t *testing.T) {
	p, err := BoundedSuccessProb(10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p > 1.0/3 {
		t.Fatalf("BoundedSuccessProb = %v", p)
	}
	if OddSuccessProb(100) != 1.0/300 {
		t.Fatalf("OddSuccessProb(100) = %v", OddSuccessProb(100))
	}
	if math.IsNaN(p) {
		t.Fatal("NaN probability")
	}
}

// TestArenaOddMatchesFresh pins the odd detector on color-BFS
// invocations that an arena retained from a larger Algorithm 1 run: the
// re-laid instances yield a fresh run's result.
func TestArenaOddMatchesFresh(t *testing.T) {
	// No collection may reclaim the retained state this test re-lays.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g, _, err := graph.PlantedLight(300, 5, 1.5, graph.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	opt := OddOptions{MaxIterations: 30, Seed: 3, SeedProb: 1, KeepGoing: true}
	want, err := DetectOdd(g, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := graph.PlantedLight(550, 4, 1.5, graph.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	opt.Arena = congest.NewArena(1)
	if _, err := core.DetectEvenCycle(big, 2, core.Options{Seed: 1, MaxIterations: 2, Runtime: opt.Runtime}); err != nil {
		t.Fatal(err)
	}
	got, err := DetectOdd(g, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("arena run differs from a fresh one:\n got %+v\nwant %+v", got, want)
	}
}
