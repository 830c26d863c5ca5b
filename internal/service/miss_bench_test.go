package service

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// BenchmarkLoneMiss measures sequential cache misses — fingerprint,
// scheduling, engine session, response build — on a small graph, each
// arriving while no other miss is active. batching-off runs every miss
// as a direct batch of one; default keeps fused batching on, where a
// lone miss must take the same direct path instead of lingering for
// batchmates that cannot come. Varying the seed makes every request a
// distinct cache key.
func BenchmarkLoneMiss(b *testing.B) {
	g, _, err := graph.PlantedLight(16, 4, 1.5, graph.NewRand(7))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"batching-off", Config{BatchSize: 1, CacheEntries: 64}},
		{"default", Config{CacheEntries: 64}},
	} {
		b.Run(c.name, func(b *testing.B) {
			svc := New(c.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, info, err := svc.DoInfo(context.Background(), &Request{
					Graph: g, Algo: AlgoEven, K: 2, Seed: uint64(i + 1), Iterations: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				if info.Source != SourceComputed || info.Batch != 1 {
					b.Fatalf("lone miss served as %s in a batch of %d, want computed/1", info.Source, info.Batch)
				}
			}
			b.StopTimer()
			if st := svc.Stats(); st.BatchesFormed != 0 {
				b.Fatalf("%d lone misses went through the batcher", st.BatchesFormed)
			}
		})
	}
}
