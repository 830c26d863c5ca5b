package congest

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// staggerProbe schedules every node's first run at a future round and
// sends once from there, so a re-laid session's wake-up state shows in
// the Report.
type staggerProbe struct{}

func (staggerProbe) Init(rt *Session) {
	for u := 0; u < rt.N(); u++ {
		rt.WakeAt(NodeID(u), u%7*3)
	}
}

func (staggerProbe) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	if len(inbox) == 0 && rt.Degree(u) > 0 {
		rt.Broadcast(u, 2, uint64(r), uint64(u))
	}
}

// TestArenaRelaidSessionTranscriptsMatch pins that a session re-laid
// from other networks leaks nothing into the next run: probes on a
// network that a retained session reaches only after larger, smaller and
// differently sharded ones yield the Reports and handler-side
// transcripts of a fresh engine, serially and at 4 forced-parallel
// workers.
func TestArenaRelaidSessionTranscriptsMatch(t *testing.T) {
	// No collection may reclaim the retained state this test re-lays.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := graph.Gnm(300, 900, graph.NewRand(5))
	fresh := NewEngine(NewNetwork(g, 42))
	wantStagger, err := fresh.RunSession(staggerProbe{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, wantH := runProbe(t, fresh, 7)
	for _, rt := range []Runtime{{Workers: 1}, {Workers: 4, ParallelThreshold: 1}} {
		rt.Arena = NewArena(1)
		for _, prior := range []*graph.Graph{
			graph.Gnm(380, 1140, graph.NewRand(6)), // the session's capacity, four delivery shards
			graph.Gnm(190, 600, graph.NewRand(7)),  // half of it, and two shards
			graph.Gnm(250, 760, graph.NewRand(8)),  // three shards, over a shorter node range than g's four
		} {
			e := NewEngine(NewNetwork(prior, 3))
			e.Runtime = rt
			runProbe(t, e, 11)
		}
		retained := rt.Arena.Bytes()
		e := NewEngine(NewNetwork(g, 42))
		e.Runtime = rt
		if got, err := e.RunSession(staggerProbe{}, 8); err != nil || !reflect.DeepEqual(got, wantStagger) {
			t.Fatalf("%+v: re-laid session's staggered Report differs (%v):\n got %+v\nwant %+v", rt, err, got, wantStagger)
		}
		got, gotH := runProbe(t, e, 7)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: re-laid session's Report differs:\n got %+v\nwant %+v", rt, got, want)
		}
		if !sameProbe(gotH, wantH) {
			t.Fatalf("%+v: re-laid session's handler-side transcript differs", rt)
		}
		if got := rt.Arena.Bytes(); got != retained || got == 0 {
			t.Fatalf("%+v: arena holds %d bytes, want the one session of the first network (%d)", rt, got, retained)
		}
	}
}

// TestArenaRelaidSessionSteadyStateAllocs extends
// TestObserveSteadyStateAllocs to a session that a larger network left
// in the arena: once re-laid, runs on the smaller network take the
// retained session back without a rebuild and stay at ≤ 1 alloc/run
// (the escaping Report), observer armed or not.
func TestArenaRelaidSessionSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The larger network's session stays under ArenaMaxValueBytes.
	big := graph.Gnm(1024, 4096, graph.NewRand(3))
	g := graph.Gnm(512, 2048, graph.NewRand(7))
	for _, armed := range []bool{false, true} {
		arena := NewArena(1)
		eb := NewEngine(NewNetwork(big, 1))
		eb.Arena = arena
		if _, err := eb.Run(&pingpong{rounds: 2}); err != nil {
			t.Fatal(err)
		}
		retained := arena.Bytes()
		e := NewEngine(NewNetwork(g, 1))
		e.Arena = arena
		if armed {
			var sink int64
			e.Observe = func(rounds int, wall time.Duration) { sink += int64(rounds) + int64(wall) }
		}
		h := &pingpong{rounds: 8}
		run := func() {
			if _, err := e.Run(h); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			run()
		}
		if avg := testing.AllocsPerRun(20, run); avg > 1 {
			t.Fatalf("armed=%v: allocs/run = %v, want ≤ 1 (the escaping Report)", armed, avg)
		}
		if got := arena.Bytes(); got != retained {
			t.Fatalf("armed=%v: arena retains %d bytes, want the larger network's session (%d)", armed, got, retained)
		}
	}
}

// TestArenaBounds pins the retention rules: a full type drops its
// oldest value, Take hands out the smallest value whose capacity covers
// the need by at most a factor of two, and either byte cap drops a value
// rather than retaining it.
func TestArenaBounds(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type kindA struct{ name string }
	type kindB struct{ name string }
	oldest, small, large := &kindA{"oldest"}, &kindA{"small"}, &kindA{"large"}
	other := &kindB{"other"}
	a := NewArena(2)
	Keep(a, oldest, 1000, 0, 10000)
	Keep(a, large, 100, 0, 1000)
	Keep(a, other, 100, 0, 10)
	Keep(a, small, 60, 0, 600) // kindA is full: the oldest goes
	if got := a.Bytes(); got != 1610 {
		t.Fatalf("Bytes = %d, want 1610 (oldest dropped)", got)
	}
	if v := Take[kindA](a, 101, 0); v != nil {
		t.Fatalf("Take beyond every capacity = %v, want nil", v)
	}
	if v := Take[kindA](a, 29, 0); v != nil {
		t.Fatalf("Take(29) = %v, want nil: no capacity within twice the need", v)
	}
	if v := Take[kindA](a, 50, 0); v != small {
		t.Fatalf("Take(50) = %v, want the smallest fit, small", v)
	}
	if v := Take[kindA](a, 50, 0); v != large {
		t.Fatalf("second Take(50) = %v, want large", v)
	}
	if v := Take[kindA](a, 50, 0); v != nil {
		t.Fatalf("Take from an emptied type = %v, want nil", v)
	}
	if v := Take[kindB](a, 100, 1); v != nil {
		t.Fatalf("Take needing edges = %v, want nil (kept with none)", v)
	}
	Keep(a, &kindA{"huge"}, 1<<30, 0, ArenaMaxBytes)
	if got := a.Bytes(); got != 10 {
		t.Fatalf("Bytes = %d after a keep past the cap, want 10 (dropped)", got)
	}
	Keep(a, &kindA{"big"}, 1<<20, 0, ArenaMaxValueBytes+1)
	if got := a.Bytes(); got != 10 {
		t.Fatalf("Bytes = %d after a keep past the value cap, want 10 (dropped)", got)
	}
	runtime.KeepAlive(oldest)
	runtime.KeepAlive(other)
	var nilArena *Arena
	Keep(nilArena, small, 1, 1, 1)
	if v := Take[kindA](nilArena, 0, 0); v != nil || nilArena.Bytes() != 0 {
		t.Fatal("a nil arena retained a value")
	}
}

// TestArenaHoldsWeakly pins that retention is not liveness: once nothing
// but the arena refers to a value, a collection reclaims it and the
// arena forgets it — retained state never raises the heap goal.
func TestArenaHoldsWeakly(t *testing.T) {
	type state struct{ buf []byte }
	a := NewArena(4)
	Keep(a, &state{buf: make([]byte, ArenaMaxValueBytes)}, 1, 0, ArenaMaxValueBytes)
	if got := a.Bytes(); got != ArenaMaxValueBytes {
		t.Fatalf("Bytes = %d before a collection, want %d", got, ArenaMaxValueBytes)
	}
	runtime.GC()
	if v := Take[state](a, 0, 0); v != nil {
		t.Fatal("a value only the arena held survived a collection")
	}
	if got := a.Bytes(); got != 0 {
		t.Fatalf("Bytes = %d after a collection, want 0", got)
	}
}

// TestArenaConcurrentEngines shares one arena among goroutines running
// engines on networks of several sizes at once, as a service's admitted
// misses do: every run's Report must equal its network's fresh Report.
func TestArenaConcurrentEngines(t *testing.T) {
	gs := []*graph.Graph{
		graph.Gnm(300, 900, graph.NewRand(1)),
		graph.Gnm(400, 1200, graph.NewRand(2)),
		graph.Gnm(550, 1650, graph.NewRand(3)),
	}
	want := make([]Report, len(gs))
	for i, g := range gs {
		want[i], _ = runProbe(t, NewEngine(NewNetwork(g, 42)), 7)
	}
	arena := NewArena(2)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				gi := (w + i) % len(gs)
				e := NewEngine(NewNetwork(gs[gi], 42))
				e.Arena = arena
				rep, err := e.RunSession(&transcriptProbe{}, 7)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(rep, want[gi]) {
					t.Errorf("worker %d run %d: Report on network %d differs from a fresh engine's", w, i, gi)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEngineLaysOutOnGraphOffsets pins that engines read the graph's own
// CSR row offsets rather than copying them, so a session from one engine
// is re-laid onto another engine over the same graph without rebuilding
// its per-node regions.
func TestEngineLaysOutOnGraphOffsets(t *testing.T) {
	g := graph.Gnm(64, 160, graph.NewRand(1))
	e1, e2 := NewEngine(NewNetwork(g, 1)), NewEngine(NewNetwork(g, 2))
	if &e1.adjOff[0] != &g.Offsets()[0] || &e2.adjOff[0] != &g.Offsets()[0] {
		t.Fatal("an engine copied the graph's row offsets")
	}
	s := e1.newSession()
	s.outTo[0] = nil // a rebuild would restore it
	s.relay(e2)
	if s.outTo[0] != nil {
		t.Fatal("re-laying onto an engine over the same graph rebuilt the CSR regions")
	}
	s.relay(NewEngine(NewNetwork(graph.Gnm(64, 160, graph.NewRand(2)), 1)))
	if s.outTo[0] == nil {
		t.Fatal("re-laying onto another graph kept the old CSR regions")
	}
}
