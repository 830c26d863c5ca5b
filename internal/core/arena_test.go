package core

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

// arenaGraph is a planted-C4 graph on n vertices.
func arenaGraph(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, _, err := graph.PlantedLight(n, 4, 1.5, graph.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestArenaDetectionMatchesFresh runs Algorithm 1 on state an arena
// retained from a larger network, a fused batch and a smaller network —
// sessions, color-BFS invocations and identifier stores all re-laid,
// shrunk and grown back within their capacity — and pins the result to
// a fresh run's: verdict, witness, every cost, set sizes.
// The same holds for the bounded-length detector, whose invocations run
// in merged mode, and with trials in parallel.
func TestArenaDetectionMatchesFresh(t *testing.T) {
	// No collection may reclaim the retained state this test re-lays.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := arenaGraph(t, 600, 3)
	for _, opt := range []Options{
		{Seed: 11, MaxIterations: 6, KeepGoing: true},
		{Seed: 12, MaxIterations: 6, Parallel: 2},
		{Seed: 13, MaxIterations: 3, Pipelined: true, Threshold: 3},
	} {
		var want *Result
		freshBytes := allocatedBytes(func() {
			var err error
			if want, err = DetectEvenCycle(g, 2, opt); err != nil {
				t.Fatal(err)
			}
		})
		wantB, err := DetectBoundedCycle(g, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		// The arena retains every invocation a run can hold at once:
		// sched.Run keeps at most 4 trials per worker in flight, each
		// holding the invocation it runs and a detecting one kept for the
		// fold, and the fold keeps one winner. It starts with that many,
		// each left by a τ = 1 run, so however the parallel trials are
		// scheduled, g's run takes only invocations that overflowing runs
		// and the warm-up runs below have dirtied.
		inFlight := 1
		if opt.Parallel > 1 {
			inFlight = 4 * opt.Parallel
		}
		arena := dirtyArena(t, 2*inFlight+1)
		warm := opt
		warm.Arena = arena
		// τ = 1 overflows nearly every forwarder: stale overflow flags and
		// queues must not survive into g's run.
		dirty := warm
		dirty.Threshold, dirty.KeepGoing = 1, true
		if _, err := DetectEvenCycle(arenaGraph(t, 1000, 4), 2, dirty); err != nil {
			t.Fatal(err)
		}
		if _, err := DetectEvenCycleFused([]FusedItem{
			{Graph: arenaGraph(t, 300, 5), Seed: 1, Iterations: 2},
			{Graph: arenaGraph(t, 600, 6), Seed: 2, Iterations: 3},
		}, 2, Options{Runtime: congest.Runtime{Arena: arena}}); err != nil {
			t.Fatal(err)
		}
		// A smaller run shrinks the retained layouts; g grows them back.
		if _, err := DetectEvenCycle(arenaGraph(t, 520, 7), 2, warm); err != nil {
			t.Fatal(err)
		}
		var got *Result
		relaidBytes := allocatedBytes(func() {
			var err error
			if got, err = DetectEvenCycle(g, 2, warm); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: arena run differs from a fresh one:\n got %+v\nwant %+v", opt, got, want)
		}
		if relaidBytes*4 > freshBytes*3 {
			t.Fatalf("%+v: the arena run allocated %d bytes, a fresh one %d: it did not re-lay retained state", opt, relaidBytes, freshBytes)
		}
		gotB, err := DetectBoundedCycle(g, 2, warm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotB, wantB) {
			t.Fatalf("%+v: bounded arena run differs from a fresh one:\n got %+v\nwant %+v", opt, gotB, wantB)
		}
	}
}

// dirtyArena returns an arena retaining slots color-BFS invocations, each
// laid out for a 1000-node graph and left by a τ = 1 run on it, which
// overflowed forwarders.
func dirtyArena(t *testing.T, slots int) *congest.Arena {
	t.Helper()
	g := arenaGraph(t, 1000, 4)
	n := g.NumNodes()
	colors := make([]int8, n)
	rng := graph.NewRand(1)
	for v := range colors {
		colors[v] = int8(rng.IntN(4))
	}
	all := make([]bool, n)
	for v := range all {
		all[v] = true
	}
	arena := congest.NewArena(slots)
	pool := NewColorBFSPool(arena, n)
	eng := congest.NewEngine(congest.NewNetwork(g, 1))
	held := make([]*ColorBFS, slots)
	for i := range held {
		b, err := pool.Acquire(ColorBFSSpec{L: 4, Color: colors, InH: all, InX: all, Threshold: 1, SeedProb: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Run(eng); err != nil {
			t.Fatal(err)
		}
		if !b.Overflowed() {
			t.Fatal("a τ = 1 color-BFS run overflowed no forwarder")
		}
		held[i] = b
	}
	for _, b := range held {
		pool.Release(b)
	}
	pool.Close()
	var kept int64
	for _, b := range held {
		kept += b.retainedBytes()
	}
	if got := arena.Bytes(); got != kept {
		t.Fatalf("arena retains %d bytes of %d dirtied invocations, want %d", got, slots, kept)
	}
	return arena
}

// allocatedBytes returns the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestArenaSecondDetectionAllocs pins what the arena saves: a second
// same-n DetectEvenCycle through an arena allocates under 10% of the
// first call's bytes, because sessions, color-BFS invocations and their
// identifier stores come back from the arena instead of being rebuilt.
// At n=1000 each of them is under congest.ArenaMaxValueBytes.
func TestArenaSecondDetectionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := arenaGraph(t, 1000, 9)
	opt := Options{MaxIterations: 4, Runtime: congest.Runtime{Arena: congest.NewArena(1)}}
	run := func(seed uint64) func() {
		return func() {
			opt.Seed = seed
			if _, err := DetectEvenCycle(g, 2, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	first := allocatedBytes(run(1))
	second := allocatedBytes(run(2))
	if second*10 >= first {
		t.Fatalf("second call allocated %d bytes, first %d: want under 10%%", second, first)
	}
}

// TestArenaWarmMissAllocs pins the warm run of BenchmarkArenaMiss (the
// same graph and seeds): once an arena holds a run's state, a further
// n=1000 detection of four colorings allocates at most 40 objects and
// 3 KB. Engine reports are values, the batch-phase
// handler lives on its invocation, the vertex sets, H masks and trial
// colorings come back from the arena with the invocations, and engines
// read the graph's CSR offsets instead of copying them (4 KB at n=1000).
func TestArenaWarmMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := arenaGraph(t, 1000, 3)
	opt := Options{MaxIterations: 4, Runtime: congest.Runtime{Arena: congest.NewArena(1)}}
	miss := func() {
		opt.Seed++
		if _, err := DetectEvenCycle(g, 2, opt); err != nil {
			t.Fatal(err)
		}
	}
	miss()
	if allocs := testing.AllocsPerRun(5, miss); allocs > 40 {
		t.Errorf("a warm miss makes %v allocations, want ≤ 40", allocs)
	}
	if bytes := allocatedBytes(miss); bytes > 3<<10 {
		t.Errorf("a warm miss allocates %d bytes, want ≤ %d", bytes, 3<<10)
	}
}

// TestArenaColorBFSDetectionsDoNotLeak pins the detection buffers of a
// retained invocation across a shrink and a grow: a detection recorded
// at node 902 of a 1000-node run must not resurface when a 500-node run
// shrinks the instance and a 950-node run grows it back over node 902.
func TestArenaColorBFSDetectionsDoNotLeak(t *testing.T) {
	// No collection may reclaim the retained state this test re-lays.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	arena := congest.NewArena(1)
	detect := func(n int, edges [][2]graph.NodeID, base graph.NodeID) []Detection {
		t.Helper()
		g := graph.FromEdges(n, edges)
		colors := make([]int8, n)
		for i := range graph.NodeID(4) {
			colors[base+i] = int8(i)
		}
		all := make([]bool, n)
		for v := range all {
			all[v] = true
		}
		pool := NewColorBFSPool(arena, n)
		defer pool.Close()
		bfs, err := pool.Acquire(ColorBFSSpec{L: 4, Color: colors, InH: all, InX: all, Threshold: n, SeedProb: 1})
		if err != nil {
			t.Fatal(err)
		}
		eng := congest.NewEngine(congest.NewNetwork(g, 1))
		eng.Arena = arena
		if _, err := bfs.Run(eng); err != nil {
			t.Fatal(err)
		}
		defer pool.Release(bfs)
		return slices.Clone(bfs.Detections())
	}
	c4 := func(base graph.NodeID) [][2]graph.NodeID {
		return [][2]graph.NodeID{{base, base + 1}, {base + 1, base + 2}, {base + 2, base + 3}, {base + 3, base}}
	}
	if got := detect(1000, c4(900), 900); len(got) != 1 || got[0].Node != 902 {
		t.Fatalf("large run detected %v, want one detection at 902", got)
	}
	if got := detect(500, nil, 10); len(got) != 0 {
		t.Fatalf("edgeless run detected %v", got)
	}
	want := []Detection{{Node: 12, Seed: 10}}
	if got := detect(950, c4(10), 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("grown run detected %v, want %v", got, want)
	}
}

// BenchmarkArenaMiss is one Algorithm 1 miss of the miss-even-inline
// shape (n=1000, k=2, four colorings) on fresh state and on state an
// arena retains from the previous iteration.
func BenchmarkArenaMiss(b *testing.B) {
	g := arenaGraph(b, 1000, 3)
	for _, c := range []struct {
		name  string
		arena *congest.Arena
	}{{"fresh", nil}, {"arena", congest.NewArena(1)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			seed := uint64(0)
			for b.Loop() {
				seed++
				if _, err := DetectEvenCycle(g, 2, Options{Seed: seed, MaxIterations: 4, Runtime: congest.Runtime{Arena: c.arena}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
