package evencycle

import (
	"bytes"
	"testing"

	"repro/internal/congest"
)

func TestFacadeDetectPlanted(t *testing.T) {
	host := RandomGraph(150, 120, 1)
	g, _, err := WithPlantedCycle(host, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(g, 2, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.FoundLen != 4 {
		t.Fatalf("res = %+v", res)
	}
	if err := VerifyCycle(g, res.Witness); err != nil {
		t.Fatalf("witness: %v", err)
	}
	if res.Rounds == 0 || res.Messages == 0 || res.Iterations == 0 {
		t.Fatalf("metrics empty: %+v", res)
	}
}

func TestFacadeOneSided(t *testing.T) {
	g := HighGirthGraph(120, 150, 4, 7)
	res, err := Detect(g, 2, WithSeed(1), WithIterations(40))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("false positive on girth-5 graph")
	}
}

func TestFacadeBounded(t *testing.T) {
	host := HighGirthGraph(120, 140, 8, 4)
	g, _, err := WithPlantedCycle(host, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectBounded(g, 2, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.FoundLen < 3 || res.FoundLen > 4 {
		t.Fatalf("res = %+v", res)
	}
	if err := VerifyCycle(g, res.Witness); err != nil {
		t.Fatalf("witness: %v", err)
	}
}

func TestFacadeOdd(t *testing.T) {
	host := HighGirthGraph(60, 70, 5, 9)
	g, _, err := WithPlantedCycle(host, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectOdd(g, 2, WithSeed(2), WithIterations(20000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.FoundLen != 5 {
		t.Fatalf("res = %+v", res)
	}
	if err := VerifyCycle(g, res.Witness); err != nil {
		t.Fatalf("witness: %v", err)
	}
}

func TestFacadeQuantum(t *testing.T) {
	host := RandomGraph(120, 100, 21)
	g, _, err := WithPlantedCycle(host, 4, 22)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectQuantum(g, 2, WithSeed(5), WithSimulationBudget(60))
	if err != nil {
		t.Fatal(err)
	}
	if res.QuantumRounds <= 0 || res.Components == 0 || res.Eps <= 0 {
		t.Fatalf("ledger empty: %+v", res)
	}
	if res.Found {
		if err := VerifyCycle(g, res.Witness); err != nil {
			t.Fatalf("witness: %v", err)
		}
	}
}

func TestFacadeQuantumOneSided(t *testing.T) {
	g := HighGirthGraph(100, 120, 4, 31)
	res, err := DetectQuantum(g, 2, WithSeed(1), WithSimulationBudget(8), WithIterations(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("quantum false positive")
	}
	odd := HighGirthGraph(100, 120, 5, 32) // girth ≥ 6: no C_5
	ores, err := DetectOddQuantum(odd, 2, WithSeed(1), WithSimulationBudget(8), WithIterations(100))
	if err != nil {
		t.Fatal(err)
	}
	if ores.Found {
		t.Fatal("quantum odd false positive")
	}
	bres, err := DetectBoundedQuantum(HighGirthGraph(100, 120, 6, 33), 2,
		WithSeed(1), WithSimulationBudget(8), WithIterations(3))
	if err != nil {
		t.Fatal(err)
	}
	if bres.Found {
		t.Fatal("quantum bounded false positive")
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := NewGraph(4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 4 || h.NumEdges() != 4 {
		t.Fatalf("round trip: %d/%d", h.NumNodes(), h.NumEdges())
	}
	res, err := Detect(h, 2, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("C_4 itself not detected")
	}
}

func TestFacadeListCycles(t *testing.T) {
	// K_{2,3} contains exactly three distinct C_4s.
	g := NewGraph(5, [][2]NodeID{
		{0, 2}, {0, 3}, {0, 4},
		{1, 2}, {1, 3}, {1, 4},
	})
	cycles, err := ListCycles(g, 2, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 3 {
		t.Fatalf("listed %d cycles, want 3: %v", len(cycles), cycles)
	}
	for _, c := range cycles {
		if err := VerifyCycle(g, c); err != nil {
			t.Fatalf("listed cycle invalid: %v", err)
		}
	}
}

func TestFacadeValidation(t *testing.T) {
	g := NewGraph(4, nil)
	if _, err := Detect(g, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := Detect(g, 2, WithError(2)); err == nil {
		t.Fatal("eps=2 accepted")
	}
}

func TestFacadeDetectLocal(t *testing.T) {
	host := RandomGraph(150, 130, 51)
	g, _, err := WithPlantedCycle(host, 4, 52)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectLocal(g, 2, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("planted C_4 missed (%d iterations)", res.Iterations)
	}
	if len(res.Rejecting) != 4 {
		t.Fatalf("rejecting set %v, want the 4 cycle members", res.Rejecting)
	}
	member := map[NodeID]bool{}
	for _, v := range res.Witness {
		member[v] = true
	}
	for _, v := range res.Rejecting {
		if !member[v] {
			t.Fatalf("node %d rejects but is not on the witness %v", v, res.Witness)
		}
	}
}

// TestDetectLocalChargesNotificationBits pins that the notification's
// messages are charged bits like every other session's: the whole run
// is one n-node network, so bits are exactly messages × MessageBits(n).
func TestDetectLocalChargesNotificationBits(t *testing.T) {
	g, _, err := WithPlantedCycle(RandomGraph(400, 700, 5), 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectLocal(g, 2, WithSeed(1), WithIterations(20))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("planted C_4 missed (%d iterations)", res.Iterations)
	}
	if want := res.Messages * congest.MessageBits(g.NumNodes()); res.Bits != want {
		t.Fatalf("bits = %d for %d messages, want %d", res.Bits, res.Messages, want)
	}
}
