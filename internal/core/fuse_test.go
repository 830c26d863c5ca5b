package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// fusedEvenCorpus builds a mixed batch: planted C_2k positives, high-girth
// negatives, plain G(n,m) — with per-item seeds and trial budgets.
func fusedEvenCorpus(t *testing.T, k, count int, seed uint64) []FusedItem {
	t.Helper()
	rng := graph.NewRand(seed)
	items := make([]FusedItem, count)
	for i := range items {
		n := 24 + rng.IntN(72)
		var g *graph.Graph
		switch i % 3 {
		case 0:
			pg, _, err := graph.PlantedLight(n, 2*k, 2.0, rng)
			if err != nil {
				t.Fatalf("planted: %v", err)
			}
			g = pg
		case 1:
			g = graph.HighGirth(n, 2*n, 2*k+1, rng)
		default:
			g = graph.Gnm(n, 3*n, rng)
		}
		items[i] = FusedItem{Graph: g, Seed: rng.Uint64(), Iterations: 1 + rng.IntN(6)}
	}
	return items
}

// soloOptions maps the fused batch options plus one item's seed/budget
// onto a solo DetectEvenCycle call.
func soloOptions(opt Options, it FusedItem) Options {
	opt.Seed = it.Seed
	opt.MaxIterations = it.Iterations
	return opt
}

// TestDetectEvenCycleFusedMatchesSolo pins the tentpole equivalence: every
// Result field of every batch component — verdict, witness in the item's
// own IDs, detector, rounds, messages, bits, congestion, overflow,
// iterations run, set sizes, params — equals a solo run with the item's
// seed and budget, across engine schedules and both color-BFS modes.
func TestDetectEvenCycleFusedMatchesSolo(t *testing.T) {
	for _, k := range []int{2, 3} {
		items := fusedEvenCorpus(t, k, 8, uint64(1000+k))
		for _, opt := range []Options{
			{},
			{Pipelined: true},
		} {
			fused, err := DetectEvenCycleFused(items, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i, item := range items {
				solo, err := DetectEvenCycle(item.Graph, k, soloOptions(opt, item))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fused[i], solo) {
					t.Fatalf("k=%d opt=%+v component %d:\nfused %+v\nsolo  %+v",
						k, opt, i, fused[i], solo)
				}
				if fused[i].Found {
					if err := graph.IsSimpleCycle(item.Graph, fused[i].Witness, 2*k); err != nil {
						t.Fatalf("k=%d component %d: remapped witness invalid: %v", k, i, err)
					}
				}
			}
		}
	}
}

// TestDetectEvenCycleFusedMatchesParallelSolo pins that solo trial
// parallelism does not change results relative to the (sequential) fused
// path.
func TestDetectEvenCycleFusedMatchesParallelSolo(t *testing.T) {
	items := fusedEvenCorpus(t, 2, 6, 77)
	fused, err := DetectEvenCycleFused(items, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range items {
		solo, err := DetectEvenCycle(item.Graph, 2, soloOptions(Options{Parallel: 4}, item))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fused[i], solo) {
			t.Fatalf("component %d:\nfused         %+v\nparallel solo %+v", i, fused[i], solo)
		}
	}
}

// TestDetectEvenCycleFusedRejectsUnsupported pins the unsupported-knob
// errors (randomized activation, fault injection, missing budget).
func TestDetectEvenCycleFusedRejectsUnsupported(t *testing.T) {
	g := graph.Gnm(30, 60, graph.NewRand(1))
	ok := FusedItem{Graph: g, Seed: 1, Iterations: 1}
	if _, err := DetectEvenCycleFused([]FusedItem{ok}, 2, Options{SeedProb: 0.5}); err == nil {
		t.Fatal("expected SeedProb rejection")
	}
	if _, err := DetectEvenCycleFused([]FusedItem{ok}, 2, Options{DropProb: 0.1}); err == nil {
		t.Fatal("expected DropProb rejection")
	}
	if _, err := DetectEvenCycleFused([]FusedItem{{Graph: g, Seed: 1}}, 2, Options{}); err == nil {
		t.Fatal("expected missing-budget rejection")
	}
	if _, err := DetectEvenCycleFused(nil, 2, Options{}); err == nil {
		t.Fatal("expected empty-batch rejection")
	}
}

// TestThresholdAboveInt32Saturates pins that a τ beyond MaxInt32 caps
// nothing instead of wrapping when converted to the per-node int32
// bound: the faithful τ of k=24 on C₄₈ (24·2²⁴·48 ≈ 1.9·10¹⁰) and an
// explicit Threshold of 2³² must run without error and without
// overflow, solo, as a fused batch of one, and as a batch of two whose
// graphs differ in n (per-node thresholds).
func TestThresholdAboveInt32Saturates(t *testing.T) {
	planted, _, err := graph.PlantedLight(60, 4, 2.0, graph.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		g, peer *graph.Graph
		k       int
		opt     Options
	}{
		{"faithful-k24-C48", graph.Cycle(48), graph.Cycle(50), 24, Options{}},
		{"threshold-2^32", planted, graph.Gnm(40, 120, graph.NewRand(3)), 2, Options{Threshold: 1 << 32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			item := FusedItem{Graph: tc.g, Seed: 5, Iterations: 2}
			solo, err := DetectEvenCycle(tc.g, tc.k, soloOptions(tc.opt, item))
			if err != nil {
				t.Fatalf("solo: %v", err)
			}
			if solo.Params.Tau <= math.MaxInt32 {
				t.Fatalf("τ = %d does not exceed MaxInt32", solo.Params.Tau)
			}
			one, err := DetectEvenCycleFused([]FusedItem{item}, tc.k, tc.opt)
			if err != nil {
				t.Fatalf("batch of one: %v", err)
			}
			two, err := DetectEvenCycleFused([]FusedItem{item, {Graph: tc.peer, Seed: 6, Iterations: 2}}, tc.k, tc.opt)
			if err != nil {
				t.Fatalf("batch of two: %v", err)
			}
			for name, res := range map[string]*Result{"solo": solo, "batch of one": one[0], "batch of two": two[0], "peer": two[1]} {
				if res.Overflowed {
					t.Errorf("%s: overflowed under τ = %d", name, res.Params.Tau)
				}
			}
			if !reflect.DeepEqual(two[0], solo) {
				t.Errorf("batch component differs from solo:\nfused %+v\nsolo  %+v", two[0], solo)
			}
		})
	}
}
