package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

// TestColorBFSPooledSteadyStateAllocs pins the allocation behavior the
// pooled flat-set layer exists to provide: once a pooled invocation has
// warmed up its tables and queues on a graph, further acquire/run/release
// cycles allocate nothing, whatever n or the identifier traffic: engine
// reports are values and each schedule's handler lives on the
// invocation.
func TestColorBFSPooledSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g, cyc, err := graph.PlantedLight(600, 6, 2.0, graph.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	colors := perfectColoring(n, cyc)
	all := allTrue(n)
	eng := congest.NewEngine(congest.NewNetwork(g, 9))
	pool := NewColorBFSPool(nil, n)
	for _, mode := range []struct {
		name      string
		pipelined bool
		budget    float64
	}{
		{"batch", false, 0},
		{"pipelined", true, 0},
	} {
		t.Run(mode.name, func(t *testing.T) {
			spec := ColorBFSSpec{
				L: 6, Color: colors, InH: all, InX: all,
				Threshold: n, SeedProb: 1, Pipelined: mode.pipelined,
			}
			run := func() {
				bfs, err := pool.Acquire(spec)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := bfs.Run(eng); err != nil {
					t.Fatal(err)
				}
				if len(bfs.Detections()) == 0 {
					t.Fatal("planted cycle missed under perfect coloring")
				}
				pool.Release(bfs)
			}
			for i := 0; i < 3; i++ {
				run() // warm up table/queue capacities and the session pool
			}
			avg := testing.AllocsPerRun(30, run)
			if avg > mode.budget {
				t.Fatalf("pooled steady state allocates %.1f allocs/run, budget %.0f", avg, mode.budget)
			}
			t.Logf("steady state: %.1f allocs/run", avg)
		})
	}
}
