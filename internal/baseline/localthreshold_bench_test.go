package baseline

import (
	"testing"

	"repro/internal/graph"
)

// BenchmarkLocalThreshold measures a 200-attempt local-threshold run
// (every attempt, KeepGoing) on a planted n=2000 instance, k=2: the
// attempts share one pool of color-BFS invocations.
func BenchmarkLocalThreshold(b *testing.B) {
	g, _, err := graph.PlantCycle(graph.Gnm(2000, 4000, graph.NewRand(1)), 4, graph.NewRand(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		res, err := DetectLocalThreshold(g, 2, LocalThresholdOptions{Seed: 1, Attempts: 200, KeepGoing: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Iterations != 200 {
			b.Fatalf("ran %d attempts, want 200", res.Iterations)
		}
	}
}
