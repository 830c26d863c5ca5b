package congest

import (
	"testing"

	"repro/internal/graph"
)

func TestDropProbLosesMessages(t *testing.T) {
	g := graph.CompleteBipartite(10, 10)
	run := func(drop float64) int64 {
		net := NewNetwork(g, 5)
		e := NewEngine(net)
		e.DropProb = drop
		h := &floodHandler{}
		rep, err := e.Run(h)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Messages
	}
	full, lossy := run(0), run(0.5)
	if lossy >= full {
		t.Fatalf("drop 0.5 delivered %d ≥ %d messages", lossy, full)
	}
	if lossy == 0 {
		t.Fatal("drop 0.5 delivered nothing")
	}
}

func TestDropProbDeterministic(t *testing.T) {
	g := graph.Cycle(20)
	run := func() int64 {
		net := NewNetwork(g, 9)
		e := NewEngine(net)
		e.DropProb = 0.3
		h := &floodHandler{}
		rep, err := e.Run(h)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Messages
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("lossy runs differ: %d vs %d", a, b)
	}
}
