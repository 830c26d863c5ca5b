package congest

import (
	"reflect"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// TestDeliveryInvariantAcrossWorkersAndShards pins the central contract
// of the sharded delivery pipeline at the engine level: the transcript
// probe's Report and its per-node transcript fingerprints are
// bit-identical for every (Workers, ParallelThreshold) combination,
// including thresholds that force the parallel handler and scatter paths
// onto tiny rounds. The shard count is one per worker, at least 64 nodes
// each: on 2500 nodes every worker count gets as many shards, on 300
// nodes 8 workers get 4.
func TestDeliveryInvariantAcrossWorkersAndShards(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Gnm(2500, 7500, graph.NewRand(21)),
		graph.Gnm(300, 900, graph.NewRand(22)),
	} {
		run := func(workers, threshold int) (Report, *transcriptProbe) {
			e := NewEngine(NewNetwork(g, 77))
			e.Workers = workers
			e.ParallelThreshold = threshold
			return runProbe(t, e, 5)
		}
		baseRep, baseH := run(1, 0)
		for _, cfg := range []struct{ workers, threshold int }{
			{1, 1}, // forced threshold, but serial (one worker)
			{2, 1},
			{8, 1},
			{8, 0}, // default threshold
		} {
			rep, h := run(cfg.workers, cfg.threshold)
			if !reflect.DeepEqual(baseRep, rep) {
				t.Fatalf("n=%d %+v: Report diverges:\nbase: %+v\ngot:  %+v", g.NumNodes(), cfg, baseRep, rep)
			}
			if !sameProbe(baseH, h) {
				t.Fatalf("n=%d %+v: handler-side transcript diverges", g.NumNodes(), cfg)
			}
		}
	}
}

// TestDeliverySteadyStateAllocs pins the zero-allocation contract of the
// delivery phase: once an engine's pooled session and a protocol's own
// state are warm, a whole session costs exactly one allocation — the
// escaping Report — for both the serial and the forced-parallel
// (work-stealing handlers + sharded scatter) paths. The delivery phase
// itself contributes zero.
func TestDeliverySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := graph.Gnm(2048, 8192, graph.NewRand(7))
	for _, cfg := range []struct {
		name               string
		workers, threshold int
	}{
		{"serial", 1, 0},
		{"parallel", 4, 1},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			e := NewEngine(NewNetwork(g, 1))
			e.Workers = cfg.workers
			e.ParallelThreshold = cfg.threshold
			h := &pingpong{rounds: 8}
			run := func() {
				if _, err := e.Run(h); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 5; i++ {
				run() // warm the session pool, goroutine cache, buffers
			}
			if avg := testing.AllocsPerRun(20, run); avg > 1 {
				t.Fatalf("allocs/run = %v, want 1 (the escaping Report; delivery must contribute 0)", avg)
			}
		})
	}
}

// TestBroadcastMatchesSendLoop pins that Broadcast is exactly a Send
// loop over the adjacency (bandwidth stamps included: a Broadcast after
// a Send on one edge must fail).
func TestBroadcastMatchesSendLoop(t *testing.T) {
	g := graph.Gnm(200, 800, graph.NewRand(9))
	run := func(broadcast bool) (Report, *floodHandler) {
		e := NewEngine(NewNetwork(g, 4))
		h := &floodHandler{broadcast: broadcast}
		rep, err := e.Run(h)
		if err != nil {
			t.Fatal(err)
		}
		return rep, h
	}
	sendRep, sendH := run(false)
	bcastRep, bcastH := run(true)
	if !reflect.DeepEqual(sendRep, bcastRep) || !reflect.DeepEqual(sendH.heard, bcastH.heard) {
		t.Fatal("Broadcast transcript differs from the equivalent Send loop")
	}
}

// doubleSendBroadcast sends on one edge and then broadcasts from the
// given node, which must trip the bandwidth check.
type doubleSendBroadcast struct{ node NodeID }

func (h doubleSendBroadcast) Init(rt *Session) { rt.WakeAt(h.node, 0) }
func (h doubleSendBroadcast) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	rt.Send(u, rt.Neighbors(u)[0], 1, 0, 0)
	rt.Broadcast(u, 1, 0, 0)
}

func TestBroadcastEnforcesBandwidth(t *testing.T) {
	// Node 2 is the highest-ID node: its CSR out-region is the last one,
	// so a mis-based broadcast payload slice would run past the buffer
	// instead of failing gracefully (regression test).
	for _, node := range []NodeID{0, 2} {
		net := NewNetwork(graph.Path(3), 1)
		_, err := NewEngine(net).Run(doubleSendBroadcast{node: node})
		if err == nil || !strings.Contains(err.Error(), "bandwidth") {
			t.Fatalf("node %d: want bandwidth violation from Send+Broadcast on one edge, got %v", node, err)
		}
	}
}

// cutoverProbe is pingpong counting the handler calls that run in a
// parallel round (rt.serialRound false).
type cutoverProbe struct {
	pingpong
	parallel atomic.Int64
}

func (p *cutoverProbe) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	if !rt.serialRound {
		p.parallel.Add(1)
	}
	p.pingpong.HandleRound(rt, u, r, inbox)
}

// TestParallelCutoverCountsMessages pins the default serial/parallel
// cutover to round volume, not due-node count: a sparse network with
// 2048 due nodes but 8192 messages a round stays serial, while complete
// bipartite 128×128 (256 due nodes, 32768 messages) goes parallel.
func TestParallelCutoverCountsMessages(t *testing.T) {
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		parallel bool
	}{
		{"gnm-2048x4096", graph.Gnm(2048, 4096, graph.NewRand(3)), false},
		{"bipartite-128x128", graph.CompleteBipartite(128, 128), true},
	} {
		e := NewEngine(NewNetwork(tc.g, 1))
		e.Workers = 8
		h := &cutoverProbe{pingpong: pingpong{rounds: 4}}
		if _, err := e.Run(h); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := h.parallel.Load(); (got > 0) != tc.parallel {
			t.Errorf("%s: %d handler calls ran in parallel rounds, want parallel=%v", tc.name, got, tc.parallel)
		}
	}
}

// payloadOverflow ships a B payload beyond the packed wire capacity.
type payloadOverflow struct{}

func (payloadOverflow) Init(rt *Session) { rt.WakeAt(0, 0) }
func (payloadOverflow) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	rt.Send(u, rt.Neighbors(u)[0], 1, 0, MaxPayloadB+1)
}

func TestPayloadCapEnforced(t *testing.T) {
	net := NewNetwork(graph.Path(2), 1)
	_, err := NewEngine(net).Run(payloadOverflow{})
	if err == nil {
		t.Fatal("want protocol error for B payload beyond MaxPayloadB")
	}
}

// TestPackedMessageRoundTrip pins the 16-byte packing: accessors return
// exactly what Send staged, at the struct size the packing promises.
func TestPackedMessageRoundTrip(t *testing.T) {
	if size := int(reflect.TypeOf(Message{}).Size()); size != 16 {
		t.Fatalf("Message is %d bytes, want 16", size)
	}
	m := packMessage(1234567, 0xAB, ^uint64(0), MaxPayloadB)
	if m.From() != 1234567 || m.Kind() != 0xAB || m.A() != ^uint64(0) || m.B() != MaxPayloadB {
		t.Fatalf("round-trip mismatch: From=%d Kind=%#x A=%#x B=%#x", m.From(), m.Kind(), m.A(), m.B())
	}
}
