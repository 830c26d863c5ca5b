package core

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

// TestColorBFSUniversalOneSidedness is the strongest invariant check in
// the suite: across completely arbitrary configurations — random graphs,
// random (not necessarily sensible) colorings, random subgraph H, random
// seed set X, random thresholds, random activation probabilities, both
// schedules, even/odd cycle lengths and skip mode — every single detection
// must materialize into a verified simple cycle of the exact target length
// inside H. This is the machine-checked form of the paper's "acceptance
// without error" argument (Section 2.2.1).
func TestColorBFSUniversalOneSidedness(t *testing.T) {
	rng := graph.NewRand(2024)
	detections := 0
	for trial := 0; trial < 150; trial++ {
		n := 20 + int(rng.Int32N(60))
		m := n / 2 * (1 + int(rng.Int32N(4)))
		g := graph.Gnm(n, m, rng)
		L := 3 + int(rng.Int32N(6)) // 3..8
		skip := L%2 == 0 && rng.Float64() < 0.4
		// A third of the trials plant a consecutively colored cycle so the
		// fuzz exercises the detection path heavily; the coloring of the
		// rest of the graph stays adversarially random either way.
		var planted []graph.NodeID
		if rng.Float64() < 0.35 {
			var err error
			g, planted, err = graph.PlantCycle(g, L, rng)
			if err != nil {
				t.Fatal(err)
			}
		}
		colors := make([]int8, n)
		inH := make([]bool, n)
		inX := make([]bool, n)
		for v := 0; v < n; v++ {
			colors[v] = int8(rng.IntN(L))
			inH[v] = rng.Float64() < 0.9
			inX[v] = rng.Float64() < 0.7
		}
		for i, v := range planted {
			colors[v] = int8(i)
			inH[v] = true
			if i == 0 {
				inX[v] = true
			}
		}
		threshold := 1 + int(rng.Int32N(int32(n)))
		seedProb := 1.0
		if rng.Float64() < 0.3 {
			seedProb = 0.3 + rng.Float64()*0.7
		}
		spec := ColorBFSSpec{
			L:          L,
			Color:      colors,
			InH:        inH,
			InX:        inX,
			Threshold:  threshold,
			SeedProb:   seedProb,
			DetectSkip: skip,
			Pipelined:  rng.Float64() < 0.5,
		}
		bfs, err := NewColorBFS(n, spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		net := congest.NewNetwork(g, uint64(trial))
		if _, err := bfs.Run(congest.NewEngine(net)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, d := range bfs.Detections() {
			detections++
			w, err := bfs.Witness(d)
			if err != nil {
				t.Fatalf("trial %d: witness reconstruction: %v", trial, err)
			}
			wantLen := L
			if d.Skip {
				wantLen = L - 1
			}
			if err := graph.IsSimpleCycle(g, w, wantLen); err != nil {
				t.Fatalf("trial %d (L=%d skip=%v): invalid witness %v: %v",
					trial, L, d.Skip, w, err)
			}
			// The cycle must lie entirely inside H.
			for _, v := range w {
				if !inH[v] {
					t.Fatalf("trial %d: witness leaves H at %d", trial, v)
				}
			}
			// And its seed must come from X.
			if !inX[graph.NodeID(d.Seed)] {
				t.Fatalf("trial %d: witness seeded outside X", trial)
			}
		}
	}
	if detections < 20 {
		t.Fatalf("fuzz exercised only %d detections; instance mix too weak", detections)
	}
	t.Logf("one-sidedness fuzz: %d detections, all witnesses verified", detections)
}

// TestAlgorithm1UniversalOneSidedness fuzzes the full driver: random
// graphs and parameters; every Found must carry a verified witness (the
// driver itself enforces this — the test proves no configuration can
// produce an error or an invalid result).
func TestAlgorithm1UniversalOneSidedness(t *testing.T) {
	rng := graph.NewRand(4048)
	found := 0
	for trial := 0; trial < 40; trial++ {
		n := 30 + int(rng.Int32N(90))
		m := n + int(rng.Int32N(int32(n)))
		g := graph.Gnm(n, m, rng)
		k := 2 + int(rng.Int32N(2))
		opt := Options{
			Seed:          uint64(trial),
			MaxIterations: 1 + int(rng.Int32N(40)),
			Pipelined:     rng.Float64() < 0.5,
		}
		if rng.Float64() < 0.3 {
			opt.SeedProb = 0.5
		}
		if rng.Float64() < 0.3 {
			opt.Threshold = 1 + int(rng.Int32N(20))
		}
		res, err := DetectEvenCycle(g, k, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Found {
			found++
			if err := graph.IsSimpleCycle(g, res.Witness, 2*k); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !graph.HasCycleLen(g, 2*k) {
				t.Fatalf("trial %d: detector and exact search disagree", trial)
			}
		}
	}
	t.Logf("driver fuzz: %d detections across 40 random configurations", found)
}

// TestOneSidednessUnderMessageLoss machine-checks that one-sidedness is
// structural: even with 30% adversarial message loss, any detection that
// does occur still carries a valid witness (a received identifier implies
// its whole well-colored path was received upstream), and C-free inputs
// are never rejected.
func TestOneSidednessUnderMessageLoss(t *testing.T) {
	rng := graph.NewRand(777)
	found := 0
	for trial := 0; trial < 25; trial++ {
		n := 60 + int(rng.Int32N(60))
		g, _, err := graph.PlantedLight(n, 4, 2.0, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DetectEvenCycle(g, 2, Options{
			Seed:          uint64(trial),
			MaxIterations: 30,
			DropProb:      0.3,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Found {
			found++
			if err := graph.IsSimpleCycle(g, res.Witness, 4); err != nil {
				t.Fatalf("trial %d: loss corrupted a witness: %v", trial, err)
			}
		}
	}
	if found == 0 {
		t.Fatal("nothing detected under 30% loss; test exercised nothing")
	}
	// And a C_4-free graph must stay clean under loss as well.
	free := graph.HighGirth(100, 120, 4, rng)
	res, err := DetectEvenCycle(free, 2, Options{Seed: 1, MaxIterations: 40, DropProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("false positive under message loss")
	}
}

// Every Algorithm 1 entry point and the bounded detector build their
// engine from Options, so total loss (DropProb 1) delivers no message
// and, by one-sidedness, detects nothing on a graph that has a C_4.
func TestDropProbHonoredByEveryDetector(t *testing.T) {
	g, _, err := graph.PlantCycle(graph.Gnm(200, 400, graph.NewRand(1)), 4, graph.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 1, MaxIterations: 64, DropProb: 1}
	runs := []struct {
		name string
		run  func() (found bool, c congest.Costs, err error)
	}{
		{"DetectEvenCycle", func() (bool, congest.Costs, error) {
			res, err := DetectEvenCycle(g, 2, opt)
			if err != nil {
				return false, congest.Costs{}, err
			}
			return res.Found, res.Costs, nil
		}},
		{"DetectBoundedCycle", func() (bool, congest.Costs, error) {
			res, err := DetectBoundedCycle(g, 2, opt)
			if err != nil {
				return false, congest.Costs{}, err
			}
			return res.Found, res.Costs, nil
		}},
		{"ListEvenCycles", func() (bool, congest.Costs, error) {
			res, err := ListEvenCycles(g, 2, opt)
			if err != nil {
				return false, congest.Costs{}, err
			}
			return len(res.Cycles) > 0, res.Costs, nil
		}},
		{"DetectEvenCycleLocal", func() (bool, congest.Costs, error) {
			res, err := DetectEvenCycleLocal(g, 2, opt)
			if err != nil {
				return false, congest.Costs{}, err
			}
			return res.Found || len(res.Rejecting) > 0, res.Costs, nil
		}},
	}
	for _, r := range runs {
		found, c, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if found || c.Messages != 0 {
			t.Errorf("%s under total loss: found=%v, %d messages delivered", r.name, found, c.Messages)
		}
	}
}
