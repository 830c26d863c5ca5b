package baseline

import (
	"testing"

	"repro/internal/graph"
)

// BenchmarkKBall measures one k-ball flood-and-check (the [33]
// bounded-length baseline) on a sparse G(n,m) instance, n=400, k=3.
func BenchmarkKBall(b *testing.B) {
	g := graph.Gnm(400, 800, graph.NewRand(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := DetectKBall(g, 3, 7, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds == 0 {
			b.Fatal("k-ball flood ran no rounds")
		}
	}
}
