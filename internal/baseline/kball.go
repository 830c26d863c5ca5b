package baseline

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/idset"
)

const kindEdge uint8 = 20 // an edge announcement (A = packed endpoints, B = TTL)

// KBallResult reports the deterministic full-information detector.
type KBallResult struct {
	// Verdict carries the flood's rounds, messages and bits; the
	// detector has no threshold, so MaxCongestion and Overflowed stay
	// unset.
	congest.Verdict
	// MaxBallEdges is the largest edge set any node accumulated — the
	// congestion that drives the Θ(n)-type round complexity.
	MaxBallEdges int
}

// queuedEdge is a pending relay: the packed edge and the TTL receivers
// will get (number of further relays allowed).
type queuedEdge struct {
	key uint64
	ttl int32
}

// kballProto floods edge announcements with a relay TTL: an edge
// originating at its endpoint travels at most k-1 hops, so after
// quiescence every node knows every edge having an endpoint at distance
// ≤ k-1. One edge per round per direction (pipelined).
//
// Because pipelining delays messages behind queues, the first arrival of
// an edge is not necessarily via the fewest hops; a node therefore tracks
// the best TTL it has seen per edge and re-relays when a later arrival
// improves it (otherwise far corners of the ball would be missed).
//
// The per-node edge → best-TTL sets use the same flat stamp-guarded
// representation as the color-BFS identifier sets (internal/idset): the
// ball sets are the dominant allocation of the deterministic baseline, and
// unlike Go maps they can be upserted with zero steady-state allocations.
type kballProto struct {
	ttl0  int32        // initial TTL: k-1 hops of propagation
	known *idset.Store // per-node edge → best TTL seen
	queue [][]queuedEdge
	qIdx  []int
}

var _ congest.Handler = (*kballProto)(nil)

func edgeKey(a, b graph.NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func (p *kballProto) Init(rt *congest.Session) {
	n := rt.N()
	p.known = idset.New(n)
	p.queue = make([][]queuedEdge, n)
	p.qIdx = make([]int, n)
	for u := 0; u < n; u++ {
		v := graph.NodeID(u)
		for _, w := range rt.Neighbors(v) {
			key := edgeKey(v, w)
			p.known.Put(v, key, p.ttl0)
			if p.ttl0 > 0 {
				p.queue[v] = append(p.queue[v], queuedEdge{key: key, ttl: p.ttl0 - 1})
			}
		}
		if len(p.queue[v]) > 0 {
			rt.WakeAt(v, 0)
		}
	}
}

func (p *kballProto) HandleRound(rt *congest.Session, u graph.NodeID, r int, inbox []congest.Message) {
	for _, m := range inbox {
		if m.Kind() != kindEdge {
			continue
		}
		key, ttl := m.A(), int32(m.B())
		if best, seen := p.known.Get(u, key); seen && best >= ttl {
			continue
		}
		p.known.Put(u, key, ttl)
		if ttl > 0 {
			p.queue[u] = append(p.queue[u], queuedEdge{key: key, ttl: ttl - 1})
		}
	}
	if p.qIdx[u] < len(p.queue[u]) {
		item := p.queue[u][p.qIdx[u]]
		p.qIdx[u]++
		rt.Broadcast(u, kindEdge, item.key, uint64(item.ttl))
		if p.qIdx[u] < len(p.queue[u]) {
			rt.WakeAt(u, r+1)
		}
	}
}

// ball returns the learned edge set of node u as a map (tests only).
func (p *kballProto) ball(u graph.NodeID) map[uint64]int32 {
	out := make(map[uint64]int32, p.known.Len(u))
	for _, key := range p.known.AppendIDs(u, nil) {
		ttl, _ := p.known.Get(u, key)
		out[key] = ttl
	}
	return out
}

// DetectKBall is a deterministic C_{2k} detector in the spirit of
// Korhonen–Rybicki: every node floods its incident edges for k-1 relay
// hops (pipelined, one edge per round per direction), after which each
// node knows every edge with an endpoint at distance ≤ k-1 — a superset of
// every 2k-cycle through it. Detection is then node-local; since the local
// computation has no round cost and its outcome equals exact global
// search, the simulator performs the search once globally.
//
// Round complexity: the pipelined flood costs Θ(max_v |E(ball_{k-1}(v))|)
// rounds — Θ(n) on bounded-degree graphs, matching the deterministic Õ(n)
// row of Table 1. rt sets the simulator's parallelism; the result is
// bit-identical for every setting.
func DetectKBall(g *graph.Graph, k int, seed uint64, rt congest.Runtime) (*KBallResult, error) {
	if k < 2 {
		return nil, fmt.Errorf("baseline: k-ball detection needs k ≥ 2")
	}
	net := congest.NewNetwork(g, seed)
	eng := congest.NewEngine(net)
	eng.Runtime = rt
	proto := &kballProto{ttl0: int32(k - 1)}
	rep, err := eng.Run(proto)
	if err != nil {
		return nil, fmt.Errorf("baseline: k-ball flood: %w", err)
	}
	res := &KBallResult{MaxBallEdges: proto.known.MaxLen()}
	res.Costs = rep.Costs()
	if cyc := graph.FindCycleLen(g, 2*k); cyc != nil {
		res.Found, res.Witness, res.FoundLen = true, cyc, 2*k
	}
	return res, nil
}
