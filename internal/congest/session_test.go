package congest

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
)

// transcriptProbe is a deterministic protocol that exercises every part of
// a Report: it floods a token, draws per-node randomness, rejects at a
// deterministic subset of nodes with witnesses, and re-wakes itself, so
// any scheduling leak shows up as a Report difference.
type transcriptProbe struct {
	heard []int32
	draws []uint64
}

func (p *transcriptProbe) Init(rt *Session) {
	n := rt.N()
	p.heard = make([]int32, n)
	p.draws = make([]uint64, n)
	for i := range p.heard {
		p.heard[i] = -1
	}
	p.heard[0] = 0
	rt.WakeAt(0, 0)
}

func (p *transcriptProbe) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	if p.draws[u] == 0 {
		p.draws[u] = rt.Rand(u).Uint64() | 1
	}
	if p.heard[u] >= 0 && int(p.heard[u]) < r {
		return
	}
	if p.heard[u] < 0 {
		p.heard[u] = int32(r)
		if u%17 == 0 {
			rt.Reject(u, []NodeID{u, NodeID((u + 1) % NodeID(rt.N()))})
		}
	}
	// The random draw travels in A (the full payload word); B is capped
	// at the ⌈log₂ n⌉-bit model word and carries the sender ID.
	for _, v := range rt.Neighbors(u) {
		rt.Send(u, v, 1, p.draws[u], uint64(u))
	}
}

func runProbe(t *testing.T, e *Engine, sess uint64) (*Report, *transcriptProbe) {
	t.Helper()
	h := &transcriptProbe{}
	rep, err := e.RunSession(h, sess)
	if err != nil {
		t.Fatalf("RunSession: %v", err)
	}
	return rep, h
}

// TestTranscriptDeterminismAcrossWorkers pins the determinism contract of
// the engine: for a fixed network seed and session tag, the full Report
// (rounds, messages, bits, congestion, rejections with witnesses,
// timeline) and all handler-visible state are identical whether handlers
// run on one worker or on GOMAXPROCS workers.
func TestTranscriptDeterminismAcrossWorkers(t *testing.T) {
	g := graph.Gnm(3000, 9000, graph.NewRand(11))
	run := func(workers int) (*Report, *transcriptProbe) {
		e := NewEngine(NewNetwork(g, 42))
		e.Workers = workers
		e.Timeline = true
		return runProbe(t, e, 7)
	}
	rep1, h1 := run(1)
	repN, hN := run(max(runtime.GOMAXPROCS(0), 8))
	if !reflect.DeepEqual(rep1, repN) {
		t.Fatalf("Reports differ across worker counts:\n1 worker: %+v\nN workers: %+v", rep1, repN)
	}
	if !reflect.DeepEqual(h1.heard, hN.heard) || !reflect.DeepEqual(h1.draws, hN.draws) {
		t.Fatal("handler state differs across worker counts")
	}
	if len(rep1.Rejections) == 0 {
		t.Fatal("probe produced no rejections; test lost its teeth")
	}
}

// TestRepeatedSessionsOnReusedEngineIdentical pins that pooled session
// reuse leaks no state: the same protocol under the same session tag
// yields byte-identical Reports run after run on one engine, including
// after an aborted (halted and capped) session in between.
func TestRepeatedSessionsOnReusedEngineIdentical(t *testing.T) {
	g := graph.Gnm(500, 1500, graph.NewRand(3))
	e := NewEngine(NewNetwork(g, 9))
	first, h1 := runProbe(t, e, 21)

	// Dirty the pooled session state: a capped runaway session...
	e.MaxRounds = 10
	if _, err := e.RunSession(infiniteLoop{}, 22); err == nil {
		t.Fatal("expected round-cap error")
	}
	// ... and a protocol violation mid-flight.
	if _, err := e.RunSession(bandwidthViolator{}, 23); err == nil {
		t.Fatal("expected bandwidth violation")
	}
	e.MaxRounds = 0

	again, h2 := runProbe(t, e, 21)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("Reports differ across reused sessions:\nfirst: %+v\nagain: %+v", first, again)
	}
	if !reflect.DeepEqual(h1.draws, h2.draws) {
		t.Fatal("randomness streams differ for identical session tags")
	}
}

// TestConcurrentRunsOnOneEngine exercises the concurrency contract: many
// goroutines running sessions on one engine simultaneously each get the
// transcript they would have gotten alone.
func TestConcurrentRunsOnOneEngine(t *testing.T) {
	g := graph.Gnm(400, 1200, graph.NewRand(5))
	e := NewEngine(NewNetwork(g, 77))

	want := make([]*Report, 16)
	for i := range want {
		want[i], _ = runProbe(t, e, uint64(100+i))
	}

	var wg sync.WaitGroup
	got := make([]*Report, len(want))
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
