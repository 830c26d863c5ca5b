package incr

import (
	"testing"

	"repro/internal/deterministic"
	"repro/internal/graph"
)

// BenchmarkMutatePath measures serving one edge insertion, warm against
// cold, on identical work: the chord {100,105} lands on a path of 3000
// vertices. The path is C4-free and the chord closes only a C6, so the
// k=2 verdict stays NotFound on both sides. Warm is CSR row-splice +
// checkpointed fingerprint resume + localized recheck of the radius-2k
// ball; cold is a full rebuild + full fingerprint pass + full
// deterministic detection, which is what the mutation costs without the
// incremental machinery.
func BenchmarkMutatePath(b *testing.B) {
	const n = 3000
	edges := make([][2]graph.NodeID, 0, n)
	for v := graph.NodeID(0); v < n-1; v++ {
		edges = append(edges, [2]graph.NodeID{v, v + 1})
	}
	added := [][2]graph.NodeID{{100, 105}}

	b.Run("warm", func(b *testing.B) {
		parent := graph.FromEdges(n, edges)
		parent.Fingerprint() // memoize the parent's checkpoints, as a served corpus graph has them
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			child, err := parent.WithEdges(added)
			if err != nil {
				b.Fatal(err)
			}
			if child.Fingerprint().IsZero() {
				b.Fatal("zero fingerprint")
			}
			res, err := Recheck(child, added, 2, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Fallback || res.Res.Found {
				b.Fatalf("warm recheck left the fast path: %+v", res)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		all := append(append([][2]graph.NodeID(nil), edges...), added...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			child := graph.FromEdges(n, all)
			if child.Fingerprint().IsZero() {
				b.Fatal("zero fingerprint")
			}
			res, err := deterministic.Detect(child, 2, deterministic.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Found {
				b.Fatal("C4 found in a C6-girth instance")
			}
		}
	})
}
