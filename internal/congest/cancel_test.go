package congest

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

// spinner re-wakes itself every round forever, so a run only ends via
// cancellation or the round cap. notify is closed once the protocol has
// demonstrably entered its spin (round ≥ 100).
type spinner struct {
	notify chan struct{}
	once   bool
}

func (s *spinner) Init(rt *Session) { rt.WakeAt(0, 0) }
func (s *spinner) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	if r >= 100 && !s.once {
		s.once = true
		close(s.notify)
	}
	rt.WakeAt(u, r+1)
}

func TestCancelPreTrippedStopsBeforeFirstRound(t *testing.T) {
	net := NewNetwork(graph.Path(2), 1)
	eng := NewEngine(net)
	eng.Cancel = &CancelFlag{}
	eng.Cancel.Cancel()
	h := &spinner{notify: make(chan struct{})}
	rep, err := eng.Run(h)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !reflect.DeepEqual(rep, Report{}) {
		t.Fatalf("got report %+v from a canceled run", rep)
	}
	select {
	case <-h.notify:
		t.Fatal("handler ran past round 100 despite pre-tripped cancel")
	default:
	}
}

func TestCancelStopsInFlightRun(t *testing.T) {
	net := NewNetwork(graph.Path(2), 1)
	eng := NewEngine(net)
	eng.maxRounds = 100_000_000 // effectively unbounded; cancel must end the run
	flag := &CancelFlag{}
	eng.Cancel = flag
	h := &spinner{notify: make(chan struct{})}

	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(h)
		done <- err
	}()
	<-h.notify // the run is provably spinning
	flag.Cancel()
	if err := <-done; !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}

	// The engine (and its pooled session) stays usable after cancellation.
	eng.Cancel = nil
	fh := &floodHandler{}
	if _, err := eng.Run(fh); err != nil {
		t.Fatalf("post-cancel Run: %v", err)
	}
}

// TestUntrippedFlagIsTranscriptInvisible pins the "cancellation is free
// unless tripped" contract: a run with an armed-but-untripped CancelFlag
// produces the Report and handler-side transcript of a run with no flag
// at all.
func TestUntrippedFlagIsTranscriptInvisible(t *testing.T) {
	g := graph.Gnm(400, 1200, graph.NewRand(2))
	run := func(flag *CancelFlag) (Report, *transcriptProbe) {
		eng := NewEngine(NewNetwork(g, 1))
		eng.Cancel = flag
		return runProbe(t, eng, 3)
	}
	bare, bareH := run(nil)
	flagged, flaggedH := run(&CancelFlag{})
	if !reflect.DeepEqual(bare, flagged) {
		t.Fatalf("reports diverge:\nno flag:   %+v\nwith flag: %+v", bare, flagged)
	}
	if !sameProbe(bareH, flaggedH) {
		t.Fatal("handler-side transcripts diverge")
	}
}

func TestWatchContextTripsFlagWithoutGoroutine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	flag := &CancelFlag{}
	stop := WatchContext(ctx, flag)
	if flag.Canceled() {
		t.Fatal("flag tripped before the context was done")
	}
	cancel()
	// AfterFunc runs the callback in its own goroutine; give it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for !flag.Canceled() {
		if time.Now().After(deadline) {
			t.Fatal("flag did not trip after context cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
}

func TestNilCancelFlagMethods(t *testing.T) {
	var c *CancelFlag
	if c.Canceled() {
		t.Fatal("nil flag reports canceled")
	}
}

// panicAtNode panics inside HandleRound for one designated node.
type panicAtNode struct {
	target NodeID
	all    bool // wake every node at round 0 (forces big due lists)
}

func (p *panicAtNode) Init(rt *Session) {
	if p.all {
		for u := 0; u < rt.N(); u++ {
			rt.WakeAt(NodeID(u), 0)
		}
		return
	}
	rt.WakeAt(p.target, 0)
}

func (p *panicAtNode) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	if u == p.target {
		panic("boom: injected handler panic")
	}
}

func TestHandlerPanicSerialBecomesError(t *testing.T) {
	net := NewNetwork(graph.Path(4), 1)
	eng := NewEngine(net)
	_, err := eng.Run(&panicAtNode{target: 1})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want handler-panicked error", err)
	}
	// The pooled session must be clean for the next run.
	if _, err := eng.Run(&floodHandler{}); err != nil {
		t.Fatalf("post-panic Run: %v", err)
	}
}

// initPanics panics during Init.
type initPanics struct{}

func (initPanics) Init(rt *Session)                                       { panic("boom in Init") }
func (initPanics) HandleRound(rt *Session, u NodeID, r int, in []Message) {}

func TestInitPanicBecomesError(t *testing.T) {
	net := NewNetwork(graph.Path(4), 1)
	eng := NewEngine(net)
	_, err := eng.Run(initPanics{})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panicked error", err)
	}
	if _, err := eng.Run(&floodHandler{}); err != nil {
		t.Fatalf("post-panic Run: %v", err)
	}
}
