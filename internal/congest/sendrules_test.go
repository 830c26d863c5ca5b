package congest

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// sendRuleViolator broadcasts from every node at round 0 and, at round
// 1, from every node but bad; bad instead stages the round's two
// conflicting operations, so the session fails on exactly one node.
type sendRuleViolator struct {
	bad           NodeID
	first, second func(rt *Session, u NodeID)
}

func (h sendRuleViolator) Init(rt *Session) {
	for u := 0; u < rt.N(); u++ {
		rt.WakeAt(NodeID(u), 0)
	}
}

func (h sendRuleViolator) HandleRound(rt *Session, u NodeID, r int, inbox []Message) {
	switch {
	case r == 1 && u == h.bad:
		h.first(rt, u)
		h.second(rt, u)
	case r <= 1:
		rt.Broadcast(u, 1, uint64(u), uint64(r))
	}
}

// TestSendRulesKeepTheirErrors pins the bandwidth rules between Send and
// Broadcast: a second Broadcast, a Send after a Broadcast and a
// Broadcast after a Send by one node in one round each fail the session
// with the error naming that node and edge, in serial rounds and in
// forced-parallel ones.
func TestSendRulesKeepTheirErrors(t *testing.T) {
	g := graph.Gnm(300, 900, graph.NewRand(4))
	const bad = NodeID(37)
	nbrs := g.Neighbors(bad)
	first, last := nbrs[0], nbrs[len(nbrs)-1]
	broadcast := func(rt *Session, u NodeID) { rt.Broadcast(u, 2, 0, 0) }
	sendLast := func(rt *Session, u NodeID) { rt.Send(u, last, 3, 0, 0) }
	for _, tc := range []struct {
		name          string
		first, second func(rt *Session, u NodeID)
		want          string
	}{
		{"broadcast-twice", broadcast, broadcast,
			fmt.Sprintf("congest: round 1: node %d broadcast after already sending to %d (bandwidth violation)", bad, first)},
		{"send-after-broadcast", broadcast, sendLast,
			fmt.Sprintf("congest: round 1: node %d sent twice on edge to %d (bandwidth violation)", bad, last)},
		{"broadcast-after-send", sendLast, broadcast,
			fmt.Sprintf("congest: round 1: node %d broadcast after already sending to %d (bandwidth violation)", bad, last)},
	} {
		_, err := NewEngine(NewNetwork(g, 1)).Run(sendRuleViolator{bad: bad, first: tc.first, second: tc.second})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestBroadcastOnlySessionBuildsNoSendState pins the session layout: a
// protocol that only broadcasts leaves the per-edge Send state unbuilt,
// and the session's retained size is 60 bytes per node plus 16 per
// directed edge; one Send adds that state's 24 and 28.
func TestBroadcastOnlySessionBuildsNoSendState(t *testing.T) {
	g := graph.Gnm(500, 1500, graph.NewRand(6))
	n, m := int64(g.NumNodes()), int64(2*g.NumEdges())
	s := NewEngine(NewNetwork(g, 1)).newSession()
	if _, err := s.run(&floodHandler{broadcast: true}, 1); err != nil {
		t.Fatal(err)
	}
	s.cleanup()
	if s.send != nil {
		t.Fatal("a broadcast-only session built its Send state")
	}
	if got, want := s.retainedBytes(), 60*n+16*m; got != want {
		t.Fatalf("broadcast-only retainedBytes = %d, want 60n+16m = %d", got, want)
	}
	if _, err := s.run(&floodHandler{}, 2); err != nil {
		t.Fatal(err)
	}
	s.cleanup()
	if s.send == nil {
		t.Fatal("a session whose handlers sent has no Send state")
	}
	if got, want := s.retainedBytes(), 84*n+44*m; got != want {
		t.Fatalf("retainedBytes after a Send = %d, want 84n+44m = %d", got, want)
	}
}

// TestLossyMixedTranscriptPinned pins a lossy run of the chaos probe,
// which mixes Send and Broadcast: the drop draws follow the global
// staging order, so the fold of every node's transcript fingerprint and
// the delivered count must keep their recorded values.
func TestLossyMixedTranscriptPinned(t *testing.T) {
	g := graph.Gnm(400, 1600, graph.NewRand(10))
	e := NewEngine(NewNetwork(g, 13))
	e.DropProb = 0.3
	p := &chaosProbe{rounds: 16}
	rep, err := e.RunSession(engineProbe{p}, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := uint64(0)
	for _, fp := range p.fp {
		h = mix(h, fp)
	}
	if h != lossyMixedHash || rep.Messages != lossyMixedMessages || rep.Rounds != lossyMixedRounds {
		t.Fatalf("lossy transcript hash %#x, %d messages, %d rounds; want %#x, %d, %d",
			h, rep.Messages, rep.Rounds, uint64(lossyMixedHash), lossyMixedMessages, lossyMixedRounds)
	}
}

// The lossy chaos run's recorded transcript: its fingerprint fold,
// delivered messages and rounds.
const (
	lossyMixedHash     = 0xffca2ff0978185c2
	lossyMixedMessages = 20160
	lossyMixedRounds   = 19
)
