package congest

import (
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestDeliverySteadyStateAllocs pins the zero-allocation contract of the
// delivery phase: once an engine's pooled session and a protocol's own
// state are warm, a whole session costs at most one allocation — the
// escaping Report. The delivery phase itself contributes zero.
func TestDeliverySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := graph.Gnm(2048, 8192, graph.NewRand(7))
	t.Run("serial", func(t *testing.T) {
		e := NewEngine(NewNetwork(g, 1))
		h := &pingpong{rounds: 8}
		run := func() {
			if _, err := e.Run(h); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			run() // warm the session pool and buffers
		}
		if avg := testing.AllocsPerRun(20, run); avg > 1 {
			t.Fatalf("allocs/run = %v, want 1 (the escaping Report; delivery must contribute 0)", avg)
		}
	})
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
