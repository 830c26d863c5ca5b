package evencycle

// Cross-module integration tests: determinism of full pipelines, agreement
// between the distributed detectors and exact search, and end-to-end
// one-sidedness across every detector.

import (
	"testing"

	"repro/internal/graph"
)

// Runs are reproducible from (graph, seed): identical results including
// round counts and witnesses.
func TestIntegrationDeterminism(t *testing.T) {
	host := RandomGraph(300, 450, 5)
	g, _, err := WithPlantedCycle(host, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Detect(g, 2, WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Found != b.Found || a.Rounds != b.Rounds || a.Messages != b.Messages ||
		a.Iterations != b.Iterations {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Witness {
		if a.Witness[i] != b.Witness[i] {
			t.Fatalf("witnesses differ: %v vs %v", a.Witness, b.Witness)
		}
	}
}

// Agreement with exact search over a batch of random instances: detection
// implies a cycle exists (always), and existence implies detection at the
// faithful k=2 parameterization (statistically).
func TestIntegrationAgreementWithExactSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("agreement sweep skipped in -short mode")
	}
	rng := graph.NewRand(99)
	var havePresent, detectedPresent int
	for trial := 0; trial < 25; trial++ {
		n := 60 + int(rng.Int32N(80))
		m := n + int(rng.Int32N(int32(n)))
		g := graph.Gnm(n, m, rng)
		truth := graph.HasCycleLen(g, 4)
		res, err := Detect(g, 2, WithSeed(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found && !truth {
			t.Fatalf("trial %d: detector claims C_4 but exact search disagrees", trial)
		}
		if res.Found {
			if err := VerifyCycle(g, res.Witness); err != nil {
				t.Fatalf("trial %d: witness: %v", trial, err)
			}
		}
		if truth {
			havePresent++
			if res.Found {
				detectedPresent++
			}
		}
	}
	if havePresent == 0 {
		t.Skip("no C_4-containing instances sampled")
	}
	rate := float64(detectedPresent) / float64(havePresent)
	if rate < 0.66 {
		t.Fatalf("detection rate %.2f (%d/%d) below the 1-ε guarantee",
			rate, detectedPresent, havePresent)
	}
}

// The bounded detector's reported length is minimal-ish and consistent
// with the girth: FoundLen ≥ girth always (it found *a* cycle, which
// cannot be shorter than the shortest).
func TestIntegrationBoundedRespectsGirth(t *testing.T) {
	rng := graph.NewRand(123)
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnm(80, 160, rng)
		girth := graph.Girth(g)
		if girth < 0 || girth > 6 {
			continue
		}
		res, err := DetectBounded(g, 3, WithSeed(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found && res.FoundLen < girth {
			t.Fatalf("trial %d: found C_%d but girth is %d", trial, res.FoundLen, girth)
		}
	}
}

// Every detector family is one-sided on the same guaranteed-free input.
func TestIntegrationAllDetectorsOneSided(t *testing.T) {
	// Girth > 8: free of C_3..C_8, so every detector below must accept.
	g := HighGirthGraph(150, 180, 8, 77)
	if got := graph.Girth(g); got != -1 && got <= 8 {
		t.Fatalf("test setup: girth = %d", got)
	}
	if res, err := Detect(g, 2, WithSeed(1), WithIterations(30)); err != nil || res.Found {
		t.Fatalf("classical k=2: res=%+v err=%v", res, err)
	}
	if res, err := Detect(g, 3, WithSeed(1), WithIterations(30)); err != nil || res.Found {
		t.Fatalf("classical k=3: res=%+v err=%v", res, err)
	}
	if res, err := Detect(g, 4, WithSeed(1), WithIterations(30)); err != nil || res.Found {
		t.Fatalf("classical k=4: res=%+v err=%v", res, err)
	}
	if res, err := DetectBounded(g, 4, WithSeed(1), WithIterations(10)); err != nil || res.Found {
		t.Fatalf("bounded k=4: res=%+v err=%v", res, err)
	}
	if res, err := DetectOdd(g, 2, WithSeed(1), WithIterations(500)); err != nil || res.Found {
		t.Fatalf("odd k=2: res=%+v err=%v", res, err)
	}
	if res, err := DetectOdd(g, 3, WithSeed(1), WithIterations(500)); err != nil || res.Found {
		t.Fatalf("odd k=3: res=%+v err=%v", res, err)
	}
	if res, err := DetectQuantum(g, 2, WithSeed(1), WithSimulationBudget(5), WithIterations(3)); err != nil || res.Found {
		t.Fatalf("quantum k=2: res=%+v err=%v", res, err)
	}
	if res, err := DetectOddQuantum(g, 2, WithSeed(1), WithSimulationBudget(5), WithIterations(50)); err != nil || res.Found {
		t.Fatalf("quantum odd: res=%+v err=%v", res, err)
	}
	if res, err := DetectBoundedQuantum(g, 3, WithSeed(1), WithSimulationBudget(5), WithIterations(3)); err != nil || res.Found {
		t.Fatalf("quantum bounded: res=%+v err=%v", res, err)
	}
}

// Quantum end-to-end on a planted instance with a generous simulation
// budget: finds the cycle and maps the witness back correctly through the
// decomposition components.
func TestIntegrationQuantumEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("quantum end-to-end skipped in -short mode")
	}
	host := RandomGraph(400, 500, 31)
	g, _, err := WithPlantedCycle(host, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for seed := uint64(0); seed < 3 && !found; seed++ {
		res, err := DetectQuantum(g, 2, WithSeed(seed), WithSimulationBudget(150))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			found = true
			if err := VerifyCycle(g, res.Witness); err != nil {
				t.Fatalf("witness: %v", err)
			}
		}
	}
	if !found {
		t.Fatal("quantum pipeline never found the planted C_4 across 3 seeds × 150 sims")
	}
}
