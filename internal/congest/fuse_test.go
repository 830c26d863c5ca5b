package congest

import (
	"testing"

	"repro/internal/graph"
)

// drawFlood is a toy protocol exercising randomness, wake-ups and
// message traffic: every node draws once at round 0, broadcasts the draw,
// and keeps relaying its running minimum for a draw-dependent number of
// extra rounds. Draws[u] records node u's round-0 draw so tests can pin
// stream identity across fused and solo executions.
type drawFlood struct {
	Draws []uint64
	mins  []uint64
	until []int32
}

func (p *drawFlood) Init(rt *Session) {
	n := rt.N()
	p.Draws = make([]uint64, n)
	p.mins = make([]uint64, n)
	p.until = make([]int32, n)
	for u := 0; u < n; u++ {
		rt.WakeAt(NodeID(u), 0)
	}
}

func (p *drawFlood) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	if r == 0 {
		d := rt.Rand(u).Uint64()
		p.Draws[u] = d
		p.mins[u] = d
		p.until[u] = int32(1 + d%4)
	}
	changed := r == 0
	for _, m := range inbox {
		if v := m.A(); v < p.mins[u] {
			p.mins[u] = v
			changed = true
		}
	}
	if changed && int32(r) < p.until[u] {
		rt.Broadcast(u, 1, p.mins[u], 0)
		rt.WakeAt(u, r+1)
	}
}

func fuseTestGraphs(seed uint64) ([]*graph.Graph, []uint64) {
	rng := graph.NewRand(seed)
	gs := make([]*graph.Graph, 5)
	seeds := make([]uint64, len(gs))
	for i := range gs {
		n := 6 + rng.IntN(30)
		gs[i] = graph.Gnm(n, 2*n, rng)
		seeds[i] = rng.Uint64()
	}
	return gs, seeds
}

// TestFusedEngineMatchesSoloRuns pins the fusion invariant at the engine
// level: on a disjoint union with per-component seed bases, every
// component's node draws, rounds and message counts equal a solo run of
// that component under its own seed.
func TestFusedEngineMatchesSoloRuns(t *testing.T) {
	gs, seeds := fuseTestGraphs(42)
	eng := NewFusedEngine(gs, seeds)
	fused := &drawFlood{}
	frep, err := eng.Run(fused)
	if err != nil {
		t.Fatal(err)
	}
	if len(frep.PerComp) != len(gs) {
		t.Fatalf("PerComp has %d entries for %d graphs", len(frep.PerComp), len(gs))
	}
	var sumRounds, lo int
	var sumMsgs int64
	for i, g := range gs {
		solo := &drawFlood{}
		srep, err := NewEngine(NewNetwork(g, seeds[i])).Run(solo)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			if fused.Draws[lo+u] != solo.Draws[u] {
				t.Fatalf("component %d node %d: fused draw %x, solo draw %x",
					i, u, fused.Draws[lo+u], solo.Draws[u])
			}
		}
		lo += g.NumNodes()
		if frep.PerComp[i].Rounds != srep.Rounds {
			t.Errorf("component %d: fused rounds %d, solo %d", i, frep.PerComp[i].Rounds, srep.Rounds)
		}
		if frep.PerComp[i].Messages != srep.Messages {
			t.Errorf("component %d: fused messages %d, solo %d", i, frep.PerComp[i].Messages, srep.Messages)
		}
		if sumRounds < srep.Rounds {
			sumRounds = srep.Rounds
		}
		sumMsgs += srep.Messages
	}
	if frep.Rounds != sumRounds {
		t.Errorf("fused rounds %d, want max of solo rounds %d", frep.Rounds, sumRounds)
	}
	if frep.Messages != sumMsgs {
		t.Errorf("fused messages %d, want sum of solo messages %d", frep.Messages, sumMsgs)
	}
}

// TestFusedEngineBatchOfOne pins that a one-graph batch runs on the input
// graph itself, not a copy, with no component map: it matches a solo run
// draw for draw, Report.Comp(0) is the report's own totals, and — unlike
// a larger batch — it runs under DropProb exactly as a solo engine does.
func TestFusedEngineBatchOfOne(t *testing.T) {
	gs, seeds := fuseTestGraphs(11)
	g := gs[0]
	eng := NewFusedEngine(gs[:1], seeds[:1])
	if eng.Network().Graph() != g {
		t.Fatal("batch of one copied its graph")
	}
	if eng.numComp != 0 {
		t.Fatalf("batch of one installed a component map of %d components", eng.numComp)
	}
	for _, drop := range []float64{0, 0.3} {
		eng.DropProb = drop
		fused := &drawFlood{}
		frep, err := eng.RunSession(fused, 7)
		if err != nil {
			t.Fatalf("drop %v: %v", drop, err)
		}
		soloEng := NewEngine(NewNetwork(g, seeds[0]))
		soloEng.DropProb = drop
		solo := &drawFlood{}
		srep, err := soloEng.RunSession(solo, 7)
		if err != nil {
			t.Fatal(err)
		}
		for u := range solo.Draws {
			if fused.Draws[u] != solo.Draws[u] {
				t.Fatalf("drop %v, node %d: fused draw %x, solo draw %x", drop, u, fused.Draws[u], solo.Draws[u])
			}
		}
		if frep.PerComp != nil {
			t.Fatalf("drop %v: PerComp %+v, want none", drop, frep.PerComp)
		}
		want := CompStats{Rounds: srep.Rounds, Messages: srep.Messages}
		if got := frep.Comp(0); got != want {
			t.Fatalf("drop %v: Comp(0) = %+v, want the solo totals %+v", drop, got, want)
		}
	}
}

// TestFusedAccountingScheduleInvariant pins that the per-component split
// does not depend on where the session's state came from: a fresh
// engine, its pooled session run again, and an arena-retained session
// re-laid onto another fused engine all report the same stats.
func TestFusedAccountingScheduleInvariant(t *testing.T) {
	gs, seeds := fuseTestGraphs(7)
	base := NewFusedEngine(gs, seeds)
	ref, err := base.RunSession(&drawFlood{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena(1)
	for i, eng := range []*Engine{base, NewFusedEngine(gs, seeds), NewFusedEngine(gs, seeds)} {
		if eng != base {
			eng.Arena = arena
		}
		rep, err := eng.RunSession(&drawFlood{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for c := range ref.PerComp {
			if rep.PerComp[c] != ref.PerComp[c] {
				t.Fatalf("run %d: component %d stats %+v, want %+v", i, c, rep.PerComp[c], ref.PerComp[c])
			}
		}
	}
}

// TestFusedEngineRejectsDropProb pins that fault injection and
// per-component accounting cannot be combined (counts are sender-side).
func TestFusedEngineRejectsDropProb(t *testing.T) {
	gs, seeds := fuseTestGraphs(3)
	eng := NewFusedEngine(gs, seeds)
	eng.DropProb = 0.5
	if _, err := eng.Run(&drawFlood{}); err == nil {
		t.Fatal("expected error combining SetComponents with DropProb")
	}
}
