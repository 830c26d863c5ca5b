package deterministic

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
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
