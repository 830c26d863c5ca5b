package congest

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
)

// transcriptProbe is a deterministic protocol that floods a token and
// draws per-node randomness. Every node folds each of its handler calls
// (the round, then every inbox message in order) into fp, so any
// scheduling leak (a node run in another round, a message reordered,
// dropped or altered) shows up as a handler-state difference.
type transcriptProbe struct {
	heard []int32
	draws []uint64
	fp    []uint64
}

func (p *transcriptProbe) Init(rt *Session) {
	n := rt.N()
	p.heard = make([]int32, n)
	p.draws = make([]uint64, n)
	p.fp = make([]uint64, n)
	for i := range p.heard {
		p.heard[i] = -1
	}
	p.heard[0] = 0
	rt.WakeAt(0, 0)
}

func (p *transcriptProbe) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	p.fp[u] = foldInbox(p.fp[u], r, inbox)
	if p.draws[u] == 0 {
		p.draws[u] = rt.Rand(u).Uint64() | 1
	}
	if p.heard[u] >= 0 && int(p.heard[u]) < r {
		return
	}
	if p.heard[u] < 0 {
		p.heard[u] = int32(r)
	}
	// The random draw travels in A (the full payload word); B is capped
	// at the ⌈log₂ n⌉-bit model word and carries the sender ID.
	for _, v := range rt.Neighbors(u) {
		rt.Send(u, v, 1, p.draws[u], uint64(u))
	}
}

func runProbe(t *testing.T, e *Engine, sess uint64) (Report, *transcriptProbe) {
	t.Helper()
	h := &transcriptProbe{}
	rep, err := e.RunSession(h, sess)
	if err != nil {
		t.Fatalf("RunSession: %v", err)
	}
	return rep, h
}

// sameProbe reports whether two probe runs saw the same transcript: the
// per-node fingerprints of every (round, inbox) and the handler state.
func sameProbe(a, b *transcriptProbe) bool {
	return reflect.DeepEqual(a.fp, b.fp) && reflect.DeepEqual(a.heard, b.heard) &&
		reflect.DeepEqual(a.draws, b.draws)
}

// TestTranscriptDeterminismAcrossWorkers pins the determinism contract of
// the engine: for a fixed network seed and session tag, the full Report
// (rounds, messages, bits) and every node's handler-side transcript are
// identical whether handlers run on one worker, two, or at least eight,
// the parallel paths forced onto every round.
func TestTranscriptDeterminismAcrossWorkers(t *testing.T) {
	g := graph.Gnm(3000, 9000, graph.NewRand(11))
	run := func(workers int) (Report, *transcriptProbe) {
		e := NewEngine(NewNetwork(g, 42))
		e.Workers = workers
		e.ParallelThreshold = 1
		return runProbe(t, e, 7)
	}
	rep1, h1 := run(1)
	for _, w := range []int{2, max(runtime.GOMAXPROCS(0), 8)} {
		repN, hN := run(w)
		if !reflect.DeepEqual(rep1, repN) {
			t.Fatalf("Reports differ at %d workers:\n1 worker: %+v\n%d workers: %+v", w, rep1, w, repN)
		}
		if !sameProbe(h1, hN) {
			t.Fatalf("handler-side transcript differs at %d workers", w)
		}
	}
	if rep1.Rounds < 2 || rep1.Messages == 0 {
		t.Fatalf("probe ran %d rounds, %d messages; test lost its teeth", rep1.Rounds, rep1.Messages)
	}
}

// TestRepeatedSessionsOnReusedEngineIdentical pins that pooled session
// reuse leaks no state: the same protocol under the same session tag
// yields byte-identical Reports run after run on one engine, including
// after aborted (round-capped and failed) sessions in between.
func TestRepeatedSessionsOnReusedEngineIdentical(t *testing.T) {
	g := graph.Gnm(500, 1500, graph.NewRand(3))
	e := NewEngine(NewNetwork(g, 9))
	first, h1 := runProbe(t, e, 21)

	// Dirty the pooled session state: a capped runaway session...
	e.maxRounds = 10
	if _, err := e.RunSession(infiniteLoop{}, 22); err == nil {
		t.Fatal("expected round-cap error")
	}
	// ... and a protocol violation mid-flight.
	if _, err := e.RunSession(bandwidthViolator{}, 23); err == nil {
		t.Fatal("expected bandwidth violation")
	}
	e.maxRounds = 0

	again, h2 := runProbe(t, e, 21)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("Reports differ across reused sessions:\nfirst: %+v\nagain: %+v", first, again)
	}
	if !sameProbe(h1, h2) {
		t.Fatal("handler-side transcripts differ for identical session tags")
	}
}

// TestConcurrentRunsOnOneEngine exercises the concurrency contract: many
// goroutines running sessions on one engine simultaneously each get the
// transcript they would have gotten alone.
func TestConcurrentRunsOnOneEngine(t *testing.T) {
	g := graph.Gnm(400, 1200, graph.NewRand(5))
	e := NewEngine(NewNetwork(g, 77))

	want := make([]Report, 16)
	for i := range want {
		want[i], _ = runProbe(t, e, uint64(100+i))
	}

	var wg sync.WaitGroup
	got := make([]Report, len(want))
	errs := make([]error, len(want))
	for i := range want {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := &transcriptProbe{}
			got[i], errs[i] = e.RunSession(h, uint64(100+i))
		}(i)
	}
	wg.Wait()
	for i := range want {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("concurrent run %d diverged from its solo transcript", i)
		}
	}
}

// gapProtocol pins the fast-forward semantics: activity at rounds 0 and 1,
// then an idle gap to round 400, one more active round there, then a
// scheduled wake at 900 that does nothing.
type gapProtocol struct{ ran []int }

func (p *gapProtocol) Init(rt *Session) { rt.WakeAt(0, 0) }
func (p *gapProtocol) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	p.ran = append(p.ran, r)
	switch r {
	case 0:
		rt.Send(u, rt.Neighbors(u)[0], 1, 0, 0) // forces round 1 at the receiver
		rt.WakeAt(u, 400)
	case 400:
		rt.WakeAt(u, 900)
	}
}

// TestIdleGapsElapseInRounds pins the round-accounting contract stated on
// Report.Rounds: idle gaps are not simulated, but they elapse in CONGEST
// time and are counted.
func TestIdleGapsElapseInRounds(t *testing.T) {
	h := &gapProtocol{}
	rep, err := NewEngine(NewNetwork(graph.Path(2), 1)).Run(h)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Node 0 runs at rounds 0, 400, 900; node 1 (the receiver) at round 1.
	want := []int{0, 1, 400, 900}
	if fmt.Sprint(h.ran) != fmt.Sprint(want) {
		t.Fatalf("executed rounds %v, want %v", h.ran, want)
	}
	if rep.Rounds != 901 {
		t.Fatalf("Rounds = %d, want 901: idle gaps elapse (and are counted) even though they are not simulated", rep.Rounds)
	}
}
