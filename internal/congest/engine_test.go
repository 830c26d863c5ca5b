package congest

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// floodHandler floods a token from node 0; every node records the round at
// which it first heard the token. Used to check basic delivery and timing;
// the broadcast flag switches the flood from a per-edge Send loop to the
// engine's Broadcast fast path (transcripts must be identical).
type floodHandler struct {
	heard     []int32 // round of first receipt, -1 otherwise
	broadcast bool
}

func (f *floodHandler) Init(rt *Session) {
	f.heard = make([]int32, rt.N())
	for i := range f.heard {
		f.heard[i] = -1
	}
	f.heard[0] = 0
	rt.WakeAt(0, 0)
}

func (f *floodHandler) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	if f.heard[u] >= 0 && int(f.heard[u]) < r {
		return // already flooded on a previous round
	}
	if f.heard[u] < 0 {
		f.heard[u] = int32(r)
	}
	if f.broadcast {
		rt.Broadcast(u, 1, uint64(u), 0)
		return
	}
	for _, v := range rt.Neighbors(u) {
		rt.Send(u, v, 1, uint64(u), 0)
	}
}

func TestFloodReachesAllAtBFSDistance(t *testing.T) {
	g := graph.Path(6)
	net := NewNetwork(g, 1)
	h := &floodHandler{}
	rep, err := NewEngine(net).Run(h)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := g.BFSDistances(0)
	for v := 0; v < 6; v++ {
		// Node v first hears the token one round after the sender at
		// distance d-1 sends, i.e. at round d (send at round d-1 delivers
		// at round d).
		if v == 0 {
			continue
		}
		if f := h.heard[v]; f != want[v] {
			t.Errorf("node %d heard at round %d, want %d", v, f, want[v])
		}
	}
	// Path flooding: last node hears at round 5, replies nothing new; the
	// executed rounds should be distance+1 (its own handler run).
	if rep.Rounds < 5 || rep.Rounds > 7 {
		t.Errorf("Rounds = %d, want ≈ 6", rep.Rounds)
	}
	if rep.Messages == 0 {
		t.Error("no messages recorded")
	}
}

// bandwidthViolator sends twice on the same edge in one round.
type bandwidthViolator struct{}

func (bandwidthViolator) Init(rt *Session) { rt.WakeAt(0, 0) }
func (bandwidthViolator) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	v := rt.Neighbors(u)[0]
	rt.Send(u, v, 1, 0, 0)
	rt.Send(u, v, 1, 1, 0)
}

func TestBandwidthViolationDetected(t *testing.T) {
	net := NewNetwork(graph.Path(2), 1)
	_, err := NewEngine(net).Run(bandwidthViolator{})
	if err == nil || !strings.Contains(err.Error(), "bandwidth") {
		t.Fatalf("want bandwidth violation, got %v", err)
	}
}

// nonNeighborSender sends to a node that is not adjacent.
type nonNeighborSender struct{}

func (nonNeighborSender) Init(rt *Session) { rt.WakeAt(0, 0) }
func (nonNeighborSender) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	rt.Send(u, 2, 1, 0, 0) // path 0-1-2: node 2 is not adjacent to 0
}

func TestLocalityViolationDetected(t *testing.T) {
	net := NewNetwork(graph.Path(3), 1)
	_, err := NewEngine(net).Run(nonNeighborSender{})
	if err == nil || !strings.Contains(err.Error(), "non-neighbor") {
		t.Fatalf("want locality violation, got %v", err)
	}
}

// sameRoundBothDirections exercises that u→v and v→u in the same round are
// both legal (one message per *directed* edge).
type sameRoundBothDirections struct{ got [2]bool }

func (s *sameRoundBothDirections) Init(rt *Session) {
	rt.WakeAt(0, 0)
	rt.WakeAt(1, 0)
}

func (s *sameRoundBothDirections) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	if r == 0 {
		rt.Send(u, 1-u, 1, uint64(u), 0)
		return
	}
	for _, m := range inbox {
		s.got[u] = s.got[u] || m.From() == 1-u
	}
}

func TestDirectedEdgeBandwidth(t *testing.T) {
	net := NewNetwork(graph.Path(2), 1)
	h := &sameRoundBothDirections{}
	if _, err := NewEngine(net).Run(h); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !h.got[0] || !h.got[1] {
		t.Fatalf("messages lost: %+v", h.got)
	}
}

// wakeScheduler checks fast-forward over idle gaps: node 0 wakes at round
// 100 only.
type wakeScheduler struct{ ranAt []int }

func (w *wakeScheduler) Init(rt *Session) { rt.WakeAt(0, 100) }
func (w *wakeScheduler) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	w.ranAt = append(w.ranAt, r)
}

func TestWakeFastForward(t *testing.T) {
	net := NewNetwork(graph.Path(2), 1)
	h := &wakeScheduler{}
	rep, err := NewEngine(net).Run(h)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.ranAt) != 1 || h.ranAt[0] != 100 {
		t.Fatalf("ranAt = %v, want [100]", h.ranAt)
	}
	if rep.Rounds != 101 {
		t.Fatalf("Rounds = %d, want 101 (idle gaps elapse)", rep.Rounds)
	}
}

// pastWake scheduling must fail.
type pastWake struct{}

func (pastWake) Init(rt *Session) { rt.WakeAt(0, 5) }
func (pastWake) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	rt.WakeAt(u, r-1)
}

func TestPastWakeRejected(t *testing.T) {
	net := NewNetwork(graph.Path(2), 1)
	_, err := NewEngine(net).Run(pastWake{})
	if err == nil || !strings.Contains(err.Error(), "past round") {
		t.Fatalf("want past-wake violation, got %v", err)
	}
}

// infiniteLoop never stops; the round cap must fire.
type infiniteLoop struct{}

func (infiniteLoop) Init(rt *Session) { rt.WakeAt(0, 0) }
func (infiniteLoop) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	rt.Send(u, rt.Neighbors(u)[0], 1, 0, 0)
}

func TestMaxRoundsCap(t *testing.T) {
	net := NewNetwork(graph.Path(2), 1)
	e := NewEngine(net)
	e.maxRounds = 50
	_, err := e.Run(infiniteLoop{})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("want round-cap error, got %v", err)
	}
}

// randDeterminism: per-node streams are reproducible across sessions of the
// same network+seed and differ across nodes.
type randProbe struct{ draws []uint64 }

func (p *randProbe) Init(rt *Session) {
	p.draws = make([]uint64, rt.N())
	for u := 0; u < rt.N(); u++ {
		rt.WakeAt(NodeID(u), 0)
	}
}

func (p *randProbe) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	p.draws[u] = rt.Rand(u).Uint64()
}

func TestPerNodeRandDeterminism(t *testing.T) {
	g := graph.Cycle(8)
	run := func(seed uint64) []uint64 {
		net := NewNetwork(g, seed)
		h := &randProbe{}
		if _, err := NewEngine(net).Run(h); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return h.draws
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d draws differ across identical runs", i)
		}
	}
	c := run(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical draws")
	}
	distinct := make(map[uint64]bool)
	for _, d := range a {
		distinct[d] = true
	}
	if len(distinct) < len(a) {
		t.Fatal("per-node streams collide")
	}
}

func TestSessionStreamsDiffer(t *testing.T) {
	net := NewNetwork(graph.Cycle(4), 9)
	e := NewEngine(net)
	h1 := &randProbe{}
	if _, err := e.Run(h1); err != nil {
		t.Fatal(err)
	}
	h2 := &randProbe{}
	if _, err := e.Run(h2); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range h1.draws {
		if h1.draws[i] != h2.draws[i] {
			same = false
		}
	}
	if same {
		t.Fatal("two sessions reused identical random streams")
	}
}

func TestReportAccumulate(t *testing.T) {
	a := &Report{Rounds: 3, Messages: 10, Bits: 100}
	b := &Report{Rounds: 4, Messages: 5, Bits: 50,
		PerComp: []CompStats{{Rounds: 4, Messages: 2}, {Rounds: 1, Messages: 3}}}
	a.Accumulate(b)
	a.Accumulate(b)
	if a.Rounds != 11 || a.Messages != 20 || a.Bits != 200 {
		t.Fatalf("Accumulate: %+v", a)
	}
	want := []CompStats{{Rounds: 8, Messages: 4}, {Rounds: 2, Messages: 6}}
	if !reflect.DeepEqual(a.PerComp, want) {
		t.Fatalf("Accumulate PerComp = %+v, want %+v", a.PerComp, want)
	}
}

// parallelStress runs a big flood with many workers to exercise the
// concurrent path under the race detector.
func TestParallelFloodStress(t *testing.T) {
	rng := graph.NewRand(4)
	g := graph.Gnm(2000, 6000, rng)
	net := NewNetwork(g, 4)
	e := NewEngine(net)
	e.Workers = 8
	h := &floodHandler{}
	if _, err := e.Run(h); err != nil {
		t.Fatalf("Run: %v", err)
	}
	comp, _ := g.ConnectedComponents()
	for v := 0; v < g.NumNodes(); v++ {
		if comp[v] == comp[0] && h.heard[v] < 0 {
			t.Fatalf("node %d in component of 0 never heard the flood", v)
		}
	}
}

func TestBitsAccounting(t *testing.T) {
	g := graph.Path(6)
	net := NewNetwork(g, 1)
	h := &floodHandler{}
	rep, err := NewEngine(net).Run(h)
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Messages * MessageBits(6)
	if rep.Bits != want {
		t.Fatalf("Bits = %d, want %d (messages %d × %d)", rep.Bits, want, rep.Messages, MessageBits(6))
	}
	// MessageBits: 8 + 2·⌈log₂ n⌉.
	for _, tc := range []struct {
		n    int
		want int64
	}{{2, 10}, {4, 12}, {5, 14}, {1024, 28}, {1025, 30}} {
		if got := MessageBits(tc.n); got != tc.want {
			t.Errorf("MessageBits(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
