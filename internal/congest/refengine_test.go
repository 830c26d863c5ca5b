package congest

// A deliberately naive map-based execution of the CONGEST contract, kept
// as an executable reference for the production delivery pipeline (fixed
// CSR inbox regions, senders lists, per-node broadcasts, packed messages).
// The reference stores everything in maps and sorted slices, rebuilds
// its state from scratch every round, and reconstructs the per-receiver
// "ascending sender" order by explicit sorting — an independent
// derivation of the ordering the engine gets for free from its scan
// order. The equivalence test below drives randomized chaos protocols on
// both implementations and requires every observable — Report counters, per-node
// fingerprints of every (round, inbox) and randomness draw — to match
// exactly.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// probeRuntime is the least common API of the production Session and the
// reference runtime, so one protocol implementation can drive both.
type probeRuntime interface {
	N() int
	Degree(u NodeID) int
	Neighbors(u NodeID) []NodeID
	Rand(u NodeID) *rand.Rand
	Send(u, v NodeID, kind uint8, a, b uint64)
	Broadcast(u NodeID, kind uint8, a, b uint64)
	WakeAt(u NodeID, r int)
}

var _ probeRuntime = (*Session)(nil)

// probeHandler mirrors Handler over probeRuntime.
type probeHandler interface {
	ProbeInit(rt probeRuntime)
	ProbeRound(rt probeRuntime, u NodeID, r int, inbox []Message)
}

// engineProbe adapts a probeHandler to the production engine.
type engineProbe struct{ h probeHandler }

func (a engineProbe) Init(rt *Session) { a.h.ProbeInit(rt) }
func (a engineProbe) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	a.h.ProbeRound(rt, u, r, inbox)
}

// refRuntime implements probeRuntime over maps.
type refRuntime struct {
	net    *Network
	sess   uint64
	round  int
	inInit bool

	rands map[NodeID]*rand.Rand
	wake  map[NodeID]int
	// staged[v] accumulates messages sent to v during the current round;
	// sentOn enforces the one-message-per-directed-edge constraint.
	staged map[NodeID][]Message
	sentOn map[[2]NodeID]bool

	violation error
}

func (rt *refRuntime) N() int                      { return rt.net.NumNodes() }
func (rt *refRuntime) Degree(u NodeID) int         { return rt.net.Graph().Degree(u) }
func (rt *refRuntime) Neighbors(u NodeID) []NodeID { return rt.net.Graph().Neighbors(u) }

func (rt *refRuntime) Rand(u NodeID) *rand.Rand {
	if r, ok := rt.rands[u]; ok {
		return r
	}
	r := rt.net.nodeRand(u, rt.sess)
	rt.rands[u] = r
	return r
}

func (rt *refRuntime) WakeAt(u NodeID, r int) {
	if r < rt.round {
		rt.fail(fmt.Errorf("ref: past wake"))
		return
	}
	if cur, ok := rt.wake[u]; !ok || r < cur {
		rt.wake[u] = r
	}
}

func (rt *refRuntime) fail(err error) {
	if rt.violation == nil {
		rt.violation = err
	}
}

func (rt *refRuntime) Send(u, v NodeID, kind uint8, a, b uint64) {
	if rt.inInit {
		rt.fail(fmt.Errorf("ref: send during init"))
		return
	}
	if b > MaxPayloadB {
		rt.fail(fmt.Errorf("ref: payload B overflow"))
		return
	}
	if !slices.Contains(rt.net.Graph().Neighbors(u), v) {
		rt.fail(fmt.Errorf("ref: non-neighbor send"))
		return
	}
	if rt.sentOn[[2]NodeID{u, v}] {
		rt.fail(fmt.Errorf("ref: bandwidth violation"))
		return
	}
	rt.sentOn[[2]NodeID{u, v}] = true
	rt.staged[v] = append(rt.staged[v], packMessage(u, kind, a, b))
}

func (rt *refRuntime) Broadcast(u NodeID, kind uint8, a, b uint64) {
	for _, v := range rt.net.Graph().Neighbors(u) {
		rt.Send(u, v, kind, a, b)
	}
}

// runRef executes a probeHandler session on the map-based reference.
func runRef(net *Network, h probeHandler, sess uint64, maxRounds int) (Report, error) {
	rt := &refRuntime{
		net:    net,
		sess:   sess,
		rands:  map[NodeID]*rand.Rand{},
		wake:   map[NodeID]int{},
		staged: map[NodeID][]Message{},
		sentOn: map[[2]NodeID]bool{},
	}
	rt.inInit = true
	h.ProbeInit(rt)
	rt.inInit = false
	if rt.violation != nil {
		return Report{}, rt.violation
	}

	var rep Report
	msgBits := MessageBits(net.NumNodes())
	inbox := map[NodeID][]Message{}
	for round := 0; len(inbox) > 0 || len(rt.wake) > 0; round++ {
		if round >= maxRounds {
			return Report{}, fmt.Errorf("ref: exceeded %d rounds", maxRounds)
		}
		// Due nodes: inbox holders plus expired wake-ups, ascending.
		dueSet := map[NodeID]bool{}
		earliest := -1
		for v := range inbox {
			dueSet[v] = true
		}
		for v, r := range rt.wake {
			if r <= round {
				dueSet[v] = true
				delete(rt.wake, v)
			} else if earliest < 0 || r < earliest {
				earliest = r
			}
		}
		if len(dueSet) == 0 {
			round = earliest - 1
			continue
		}
		due := make([]NodeID, 0, len(dueSet))
		for v := range dueSet {
			due = append(due, v)
		}
		sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })

		rt.round = round
		rep.Rounds = round + 1
		var delivered int64
		for _, v := range due {
			h.ProbeRound(rt, v, round, inbox[v])
			if rt.violation != nil {
				return Report{}, rt.violation
			}
		}
		// Deliver: per receiver, ascending sender order — rederived here
		// by sorting (one message per directed edge per round makes the
		// sender a unique key), independently of the engine's scan order.
		inbox = map[NodeID][]Message{}
		for v, msgs := range rt.staged {
			sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].From() < msgs[j].From() })
			inbox[v] = msgs
			delivered += int64(len(msgs))
		}
		rt.staged = map[NodeID][]Message{}
		rt.sentOn = map[[2]NodeID]bool{}
		rep.Messages += delivered
		rep.Bits += msgBits * delivered
	}
	return rep, nil
}

// chaosProbe is a randomized protocol that exercises every delivery
// feature: per-node randomness decides between unicast bursts, full
// broadcasts and future wake-ups, and every node folds its full
// observation sequence (each round it ran in, then sender, kind and
// payloads in inbox order, and its rarer random draws) into a
// fingerprint, so any divergence in scheduling, content or per-receiver
// order between two executions changes fp.
type chaosProbe struct {
	rounds int
	fp     []uint64
}

func (p *chaosProbe) ProbeInit(rt probeRuntime) {
	p.fp = make([]uint64, rt.N())
	for u := 0; u < rt.N(); u++ {
		if u%3 != 1 {
			rt.WakeAt(NodeID(u), 0)
		}
	}
}

func mix(h, x uint64) uint64 {
	h ^= x
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h
}

// foldInbox folds one handler call (its round, then every message in
// inbox order) into a node's transcript fingerprint h.
func foldInbox(h uint64, r int, inbox []Message) uint64 {
	h = mix(h, uint64(r))
	for _, m := range inbox {
		h = mix(h, uint64(m.From()))
		h = mix(h, uint64(m.Kind()))
		h = mix(h, m.A())
		h = mix(h, m.B())
	}
	return h
}

func (p *chaosProbe) ProbeRound(rt probeRuntime, u NodeID, r int, inbox []Message) {
	p.fp[u] = foldInbox(p.fp[u], r, inbox)
	if r >= p.rounds {
		return
	}
	rng := rt.Rand(u)
	switch rng.IntN(6) {
	case 0, 1:
		rt.Broadcast(u, uint8(rng.IntN(3)), rng.Uint64(), uint64(r))
	case 2:
		nbrs := rt.Neighbors(u)
		for _, v := range nbrs {
			if rng.IntN(2) == 0 {
				rt.Send(u, v, 7, uint64(u), uint64(v)&MaxPayloadB)
			}
		}
	case 3:
		rt.WakeAt(u, r+1+rng.IntN(3))
	case 4:
		rt.Broadcast(u, 9, p.fp[u], uint64(r))
		p.fp[u] = mix(p.fp[u], uint64(rng.IntN(16)))
	case 5:
		p.fp[u] = mix(p.fp[u], uint64(rng.IntN(64)))
		rt.WakeAt(u, r+1)
	}
}

// TestEngineMatchesMapReference drives the production engine and the
// map-based reference side by side on randomized instances of 30–429
// nodes, requiring identical Reports and per-node observation
// fingerprints.
func TestEngineMatchesMapReference(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xabc))
		n := 30 + rng.IntN(400)
		g := graph.Gnm(n, n+rng.IntN(3*n), graph.NewRand(uint64(trial)*13+1))
		net := NewNetwork(g, uint64(trial)*7+3)
		sess := uint64(trial) * 1000

		want := &chaosProbe{rounds: 8 + rng.IntN(10)}
		wantRep, err := runRef(net, want, sess, 100_000)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}

		got := &chaosProbe{rounds: want.rounds}
		gotRep, err := NewEngine(net).RunSession(engineProbe{got}, sess)
		if err != nil {
			t.Fatalf("trial %d: engine: %v", trial, err)
		}
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("trial %d: report diverges from reference:\nengine:    %+v\nreference: %+v",
				trial, gotRep, wantRep)
		}
		if !reflect.DeepEqual(got.fp, want.fp) {
			t.Fatalf("trial %d: inbox fingerprints diverge from reference", trial)
		}
	}
}

// TestEngineMatchesReferenceOnReusedSessions runs several back-to-back
// chaos sessions on ONE engine (exercising pooled-session reuse against
// the from-scratch reference).
func TestEngineMatchesReferenceOnReusedSessions(t *testing.T) {
	g := graph.Gnm(300, 900, graph.NewRand(5))
	net := NewNetwork(g, 11)
	e := NewEngine(net)
	for sess := uint64(0); sess < 8; sess++ {
		want := &chaosProbe{rounds: 12}
		wantRep, err := runRef(net, want, sess, 100_000)
		if err != nil {
			t.Fatalf("sess %d: reference: %v", sess, err)
		}
		got := &chaosProbe{rounds: 12}
		gotRep, err := e.RunSession(engineProbe{got}, sess)
		if err != nil {
			t.Fatalf("sess %d: engine: %v", sess, err)
		}
		if !reflect.DeepEqual(gotRep, wantRep) || !reflect.DeepEqual(got.fp, want.fp) {
			t.Fatalf("sess %d: reused session diverges from reference", sess)
		}
	}
}
