package service

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// BenchmarkHitPath measures a warmed cache hit (fingerprint + LRU
// lookup, no engine session) for a det k=2 request on a planted n=2000
// instance, disarmed and with observation armed (a clock pair and a
// latency-histogram observation per request). The gap between the two is
// the cost of observation on the hottest path.
func BenchmarkHitPath(b *testing.B) {
	g, _, err := graph.PlantedLight(2000, 4, 2.0, graph.NewRand(11))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		observe bool
	}{{"disarmed", false}, {"observed", true}} {
		b.Run(c.name, func(b *testing.B) {
			svc := New(Config{Slots: 1, Observe: c.observe})
			req := &Request{Graph: g, Algo: AlgoDet, K: 2}
			if _, src, err := svc.Do(context.Background(), req); err != nil || src != SourceComputed {
				b.Fatalf("warm-up: source %q, err %v", src, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, src, err := svc.Do(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if !resp.Found {
					b.Fatal("service lost the det verdict")
				}
				if src != SourceCache {
					b.Fatalf("warmed request served from %q, not cache", src)
				}
			}
		})
	}
}
