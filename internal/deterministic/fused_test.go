package deterministic

import (
	"reflect"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

// fusedCorpus builds a mixed batch of small graphs: planted 2k-cycles,
// high-girth negatives and plain G(n,m) instances, so batches contain
// found, not-found and overflowing components side by side.

func fusedCorpus(t *testing.T, k int, count int, seed uint64) []*graph.Graph {
	t.Helper()
	rng := graph.NewRand(seed)
	gs := make([]*graph.Graph, count)
	for i := range gs {
		n := 16 + rng.IntN(64)
		switch i % 3 {
		case 0:
			g, _, err := graph.PlantedLight(n, 2*k, 2.0, rng)
			if err != nil {
				t.Fatalf("planted: %v", err)
			}
			gs[i] = g
		case 1:
			gs[i] = graph.HighGirth(n, 2*n, 2*k+1, rng)
		default:
			gs[i] = graph.Gnm(n, 3*n, rng)
		}
	}
	return gs
}

// TestDetectMultiMatchesSolo pins the fused deterministic path against
// solo runs: every Result field — verdict, witness (component-local IDs),
// detector, rounds, messages, bits, congestion, overflow, candidate
// count, threshold — must be byte-identical, across engine schedules.
func TestDetectMultiMatchesSolo(t *testing.T) {
	for _, k := range []int{2, 3} {
		gs := fusedCorpus(t, k, 9, uint64(100+k))
		for _, cfg := range []Options{
			{},
			{Runtime: congest.Runtime{Workers: 4, ParallelThreshold: 1}},
			{Runtime: congest.Runtime{Workers: 8, ParallelThreshold: 1}},
		} {
			fused, err := DetectMulti(gs, k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range gs {
				solo, err := Detect(g, k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fused[i], solo) {
					t.Fatalf("k=%d workers=%d component %d:\nfused %+v\nsolo  %+v",
						k, cfg.Workers, i, fused[i], solo)
				}
				if fused[i].Found {
					if err := graph.IsSimpleCycle(g, fused[i].Witness, 2*k); err != nil {
						t.Fatalf("k=%d component %d: remapped witness invalid: %v", k, i, err)
					}
				}
			}
		}
	}
}
