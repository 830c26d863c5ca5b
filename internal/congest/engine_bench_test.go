package congest

import (
	"testing"

	"repro/internal/graph"
)

// pingpong is a minimal allocation-free protocol: every node forwards a
// token to all neighbors for `rounds` rounds. Its own state is allocated
// once and reused, so the benchmark isolates the engine's per-session and
// per-round allocation behavior.
type pingpong struct{ rounds int }

func (p *pingpong) Init(rt *Session) {
	for u := 0; u < rt.N(); u++ {
		rt.WakeAt(NodeID(u), 0)
	}
}

func (p *pingpong) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	if r >= p.rounds {
		return
	}
	for _, v := range rt.Neighbors(u) {
		rt.Send(u, v, 1, uint64(u), uint64(r))
	}
}

// BenchmarkSessionRoundLoop measures allocs/op and ns/op of back-to-back
// sessions on one engine — the hot path of every detector's trial loop.
// Before the pooled-session refactor each run allocated all per-session
// state (wake/out/lastSent/rngs/inbox arrays plus per-receiver inbox
// slices); after it, steady-state runs reuse pooled buffers.
func BenchmarkSessionRoundLoop(b *testing.B) {
	g := graph.Gnm(2048, 8192, graph.NewRand(7))
	e := NewEngine(NewNetwork(g, 1))
	h := &pingpong{rounds: 16}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := e.Run(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionRoundLoopSparse is the sparse-activity regime: few nodes
// active per round over many rounds, dominated by scheduler bookkeeping
// rather than message volume.
func BenchmarkSessionRoundLoopSparse(b *testing.B) {
	g := graph.Cycle(4096)
	e := NewEngine(NewNetwork(g, 1))
	h := &floodHandler{}
	b.ReportAllocs()
	for b.Loop() {
		h.heard = nil // reset handler state; engine state is pooled
		if _, err := e.Run(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeliveryDense drives the delivery pipeline at maximal message
// density — every node broadcasts to every neighbor every round — on the
// two dense regimes the Congested-Clique-motivated scatter work targets:
// a complete bipartite network (uniform high degree, 32k messages per
// round) and a random-regular network (large n, moderate degree). The
// msgs/sec metric is the direct before/after number for the scatter
// path. The sub-benchmarks compare the serial path (workers=1), the
// work-stealing + sharded-scatter path forced onto every round
// (workers=4, threshold 1) and the default cutover (workers=4-default),
// which should track the faster of the two.
func BenchmarkDeliveryDense(b *testing.B) {
	nets := []struct {
		name string
		g    *graph.Graph
	}{
		{"bipartite-128x128", graph.CompleteBipartite(128, 128)},
	}
	if rr, err := graph.RandomRegular(4096, 4, graph.NewRand(11)); err == nil {
		nets = append(nets, struct {
			name string
			g    *graph.Graph
		}{"regular-4096x4", rr})
	} else {
		b.Fatalf("random regular: %v", err)
	}
	const rounds = 8
	for _, net := range nets {
		for _, cfg := range []struct {
			name               string
			workers, threshold int
		}{
			{"workers=1", 1, 0},
			{"workers=4", 4, 1},
			{"workers=4-default", 4, 0},
		} {
			b.Run(net.name+"/"+cfg.name, func(b *testing.B) {
				e := NewEngine(NewNetwork(net.g, 1))
				e.Workers, e.ParallelThreshold = cfg.workers, cfg.threshold
				h := &pingpong{rounds: rounds}
				var msgs int64
				b.ReportAllocs()
				for b.Loop() {
					rep, err := e.Run(h)
					if err != nil {
						b.Fatal(err)
					}
					msgs += rep.Messages
				}
				b.ReportMetric(float64(msgs)/b.Elapsed().Seconds(), "msgs/sec")
			})
		}
	}
}
