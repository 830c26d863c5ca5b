package deterministic

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/idset"
)

// allocatedBytes returns the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// planted is a planted-C_{2k} graph on n vertices.
func planted(t testing.TB, n, k int, seed uint64) *graph.Graph {
	t.Helper()
	g, _, err := graph.PlantedLight(n, 2*k, 1.5, graph.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestArenaDetectionMatchesFresh runs the detector on a session and a
// walk-key protocol that an arena retained from a larger network, a
// fused batch with per-node thresholds and a smaller network, and pins
// the Result to a fresh run's — including an overflowing threshold,
// whose discarded sets and cancelled relays must not leak into the next
// run.
func TestArenaDetectionMatchesFresh(t *testing.T) {
	// No collection may reclaim the retained state this test re-lays.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, k := range []int{2, 3} {
		g := planted(t, 500, k, uint64(k))
		for _, tau := range []int{0, 6} {
			opt := Options{Threshold: tau}
			var want *Result
			var err error
			freshBytes := allocatedBytes(func() {
				if want, err = Detect(g, k, opt); err != nil {
					t.Fatal(err)
				}
			})
			opt.Arena = congest.NewArena(1)
			if _, err := Detect(planted(t, 900, k, 7), k, Options{Threshold: 4, Runtime: opt.Runtime}); err != nil {
				t.Fatal(err)
			}
			if _, err := DetectMulti([]*graph.Graph{planted(t, 200, k, 8), planted(t, 600, k, 9)}, k, Options{Runtime: opt.Runtime}); err != nil {
				t.Fatal(err)
			}
			// A smaller run shrinks the retained layouts; g grows them back.
			if _, err := Detect(planted(t, 460, k, 10), k, Options{Threshold: 3, Runtime: opt.Runtime}); err != nil {
				t.Fatal(err)
			}
			var got *Result
			relaidBytes := allocatedBytes(func() {
				if got, err = Detect(g, k, opt); err != nil {
					t.Fatal(err)
				}
			})
			if relaidBytes*4 > freshBytes*3 {
				t.Fatalf("k=%d τ=%d: the arena run allocated %d bytes, a fresh one %d: it did not re-lay retained state", k, tau, relaidBytes, freshBytes)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d τ=%d: arena run differs from a fresh one:\n got %+v\nwant %+v", k, tau, got, want)
			}
		}
	}
}

// TestArenaSecondDetectionAllocs pins what the arena saves: a second
// same-n Detect through an arena allocates under 10% of the first call's
// bytes, because the session, the walk-key store and the relay queues
// come back from the arena instead of being rebuilt. At n=500 the
// protocol is under congest.ArenaMaxValueBytes.
func TestArenaSecondDetectionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := planted(t, 500, 3, 9)
	opt := Options{Runtime: congest.Runtime{Arena: congest.NewArena(1)}}
	bytes := func() uint64 {
		return allocatedBytes(func() {
			if _, err := Detect(g, 3, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	first := bytes()
	if second := bytes(); second*10 >= first {
		t.Fatalf("second call allocated %d bytes, first %d: want under 10%%", second, first)
	}
}

// TestArenaCandidatesDoNotLeak pins the candidate buffers of a retained
// protocol across a shrink and a grow: candidates recorded near node
// 900 of a 1000-node run must not resurface when a 500-node run shrinks
// the protocol and a 950-node run grows it back over them.
func TestArenaCandidatesDoNotLeak(t *testing.T) {
	// No collection may reclaim the retained state this test re-lays.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c4 := func(n int, base graph.NodeID) *graph.Graph {
		return graph.FromEdges(n, [][2]graph.NodeID{{base, base + 1}, {base + 1, base + 2}, {base + 2, base + 3}, {base + 3, base}})
	}
	g := c4(950, 10)
	want, err := Detect(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Runtime: congest.Runtime{Arena: congest.NewArena(1)}}
	for _, prior := range []*graph.Graph{c4(1000, 900), graph.FromEdges(500, nil)} {
		if _, err := Detect(prior, 2, opt); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Detect(g, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !got.Found {
		t.Fatalf("grown run gave %+v, want %+v", got, want)
	}
}

// BenchmarkArenaMiss is one deterministic miss (n=500, k=3) on fresh
// state and on state an arena retains from the previous iteration. The
// protocol of a miss-det-open graph (n=2000) is past
// congest.ArenaMaxValueBytes, so an arena keeps only its session.
func BenchmarkArenaMiss(b *testing.B) {
	g := planted(b, 500, 3, 9)
	for _, c := range []struct {
		name  string
		arena *congest.Arena
	}{{"fresh", nil}, {"arena", congest.NewArena(1)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Detect(g, 3, Options{Runtime: congest.Runtime{Arena: c.arena}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestColdDetectAllocs pins the cold layout: a nil-arena Detect sizes
// its walk-key tables and relay queues from the graph and carves each
// family from one slab, so a k=2 detection makes the same small number
// of allocations on a 2000-node and an 8000-node graph instead of
// growing every node's state one allocation at a time. The counts may
// differ by the few allocations sync.Pool makes when a run first
// touches a processor.
func TestColdDetectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	var counts []float64
	for _, n := range []int{2000, 8000} {
		g := graph.HighGirth(n, 3*n/2, 8, graph.NewRand(uint64(n)))
		allocs := testing.AllocsPerRun(3, func() {
			res, err := Detect(g, 2, Options{Runtime: congest.Runtime{Workers: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Found {
				t.Fatal("a C4 reported on a graph of girth > 8")
			}
		})
		if allocs > 100 {
			t.Errorf("n=%d: a cold Detect made %v allocations, want ≤ 100", n, allocs)
		}
		counts = append(counts, allocs)
	}
	if math.Abs(counts[0]-counts[1]) > 2 {
		t.Errorf("a cold Detect made %v allocations at n=2000 and %v at n=8000, want the same count", counts[0], counts[1])
	}
}

// TestArenaDropsLargeColdProtocol pins that the size a cold protocol
// reports is what building it allocated, slabs included, so the arena's
// per-value cap drops a 20000-node k=2 protocol, and retains neither it
// nor the session (4.5 MiB) it ran on.
func TestArenaDropsLargeColdProtocol(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation sizes")
	}
	g := graph.HighGirth(20000, 30000, 8, graph.NewRand(1))
	var p *detProto
	built := allocatedBytes(func() { p = newDetProto(g, 2, int32(DefaultThreshold(g.NumNodes(), 2)), nil) })
	// Building also allocates the n hints, which the protocol drops.
	if got := p.retainedBytes(); got*10 < int64(built)*9 || got > int64(built) {
		t.Fatalf("a cold protocol reports %d bytes, building it allocated %d", got, built)
	}
	if p.retainedBytes() <= congest.ArenaMaxValueBytes {
		t.Fatalf("a 20000-node protocol reports %d bytes, want past %d", p.retainedBytes(), congest.ArenaMaxValueBytes)
	}
	arena := congest.NewArena(1)
	if _, err := Detect(g, 2, Options{Runtime: congest.Runtime{Arena: arena}}); err != nil {
		t.Fatal(err)
	}
	if got := arena.Bytes(); got != 0 {
		t.Fatalf("the arena retains %d bytes after a 20000-node detection, want none", got)
	}
}

// TestColdLayoutFitsSets pins the cold layout's sizes at k = 2: where no
// node reaches τ, every set ends holding exactly the keys its table was
// sized for, so no table grows, no relay queue leaves the slab, and the
// walk-key store is exactly the layout the final set sizes call for —
// also on graphs dense in C4s, where many walks reach the same source.
func TestColdLayoutFitsSets(t *testing.T) {
	blocks := graph.CompleteBipartite(6, 6)
	for range 40 {
		blocks = graph.Union(blocks, graph.CompleteBipartite(6, 6))
	}
	for name, g := range map[string]*graph.Graph{
		"highgirth":   graph.HighGirth(3000, 4500, 8, graph.NewRand(3)),
		"gnm":         graph.Gnm(500, 900, graph.NewRand(4)),
		"grid":        graph.Grid(20, 20),
		"hypercube":   graph.Hypercube(7),
		"K6,6-blocks": blocks,
	} {
		n := g.NumNodes()
		p := takeDetProto(nil, g, 2, DefaultThreshold(n, 2), nil)
		laid := p.first.Bytes()
		if _, err := congest.NewEngine(congest.NewNetwork(g, 1)).Run(p); err != nil {
			t.Fatal(err)
		}
		lens := make([]int32, n)
		for v := range n {
			if p.over[v] {
				t.Fatalf("%s: node %d reached τ; the fixture wants every set below it", name, v)
			}
			if !p.inSlab(v, p.queue[v]) {
				t.Errorf("%s: node %d's relay queue (%d keys) outgrew its slab region", name, v, len(p.queue[v]))
			}
			lens[v] = int32(p.first.Len(graph.NodeID(v)))
		}
		if got := p.first.Bytes(); got != laid {
			t.Errorf("%s: the walk-key store grew from %d to %d bytes", name, laid, got)
		}
		if want := idset.NewSized(lens).Bytes(); laid != want {
			t.Errorf("%s: the cold layout takes %d bytes, the final set sizes call for %d", name, laid, want)
		}
	}
}
