package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// TestDetectorDeterministicAcrossParallel pins the end-to-end determinism
// contract of the trial-scheduler migration: for a fixed master seed the
// full Result — verdict, witness, round/message/bit ledger, congestion,
// iteration count — is identical whether the coloring iterations run
// sequentially or many-at-a-time.
func TestDetectorDeterministicAcrossParallel(t *testing.T) {
	rng := graph.NewRand(5)
	g, _, err := graph.PlantedHeavy(600, 4, 60, 1.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallel int, keepGoing bool) *Result {
		res, err := DetectEvenCycle(g, 2, Options{
			Seed:          99,
			MaxIterations: 24,
			KeepGoing:     keepGoing,
			Parallel:      parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, keepGoing := range []bool{false, true} {
		want := run(1, keepGoing)
		for _, parallel := range []int{4, -1} {
			if got := run(parallel, keepGoing); !reflect.DeepEqual(want, got) {
				t.Fatalf("keepGoing=%v parallel=%d: result diverged\nwant %+v\ngot  %+v",
					keepGoing, parallel, want, got)
			}
		}
		if keepGoing && !want.Found {
			t.Fatal("planted cycle not found in 24 iterations; test lost its teeth")
		}
	}
}

// TestBoundedDetectorDeterministicAcrossParallel is the same pin for the
// bounded-length (F_{2k}) detector, whose pair loop composes sequential
// stages with parallel trial batches.
func TestBoundedDetectorDeterministicAcrossParallel(t *testing.T) {
	rng := graph.NewRand(8)
	g, _, err := graph.PlantedLight(400, 6, 1.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallel int) *BoundedResult {
		res, err := DetectBoundedCycle(g, 3, Options{
			Seed:          7,
			MaxIterations: 16,
			Parallel:      parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, p := range []int{2, -1} {
		if got := run(p); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallel=%d: result diverged\nwant %+v\ngot  %+v", p, want, got)
		}
	}
}

// BenchmarkDetectorTrialsSequential / ...Parallel measure the multi-trial
// hot path end to end: K coloring iterations of Algorithm 1 on a planted
// instance, run through the shared trial scheduler with 1 worker vs
// GOMAXPROCS workers. (On a multi-core host the parallel variant is the
// TrialRunner speedup the refactor targets; the engine-level allocation
// win is measured separately in internal/congest.)
func benchmarkDetectorTrials(b *testing.B, parallel int) {
	rng := graph.NewRand(5)
	g, _, err := graph.PlantedHeavy(2000, 4, 100, 1.4, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		_, err := DetectEvenCycle(g, 2, Options{
			Seed:          42,
			MaxIterations: 16,
			KeepGoing:     true,
			Parallel:      parallel,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectorTrialsSequential(b *testing.B) { benchmarkDetectorTrials(b, 1) }
func BenchmarkDetectorTrialsParallel(b *testing.B)   { benchmarkDetectorTrials(b, -1) }
