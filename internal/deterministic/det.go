package deterministic

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/idset"
)

// kindWalk announces a walk: A = source identifier, B = walk length at the
// sender. Receivers extend the walk by one hop.
const kindWalk uint8 = 30

// Key packing: a stored identifier is source<<hopBits | length. Sources are
// bounded by congest.MaxNodes (2^28), lengths by MaxK, so keys fit a uint64
// with room to spare.
const (
	hopBits = 6
	hopMask = 1<<hopBits - 1

	// MaxK bounds the half cycle length so a walk length always fits the
	// key's hop field (and the simulation's memory; real runs use small k).
	MaxK = 1<<hopBits - 1
)

func walkKey(src uint64, length uint64) uint64 { return src<<hopBits | length }

// Options tunes a deterministic detection run. The zero value requests the
// default threshold and a serial engine.
type Options struct {
	// Threshold overrides τ, the per-node identifier cap (0 keeps the
	// default ⌈2k·n^{1-1/k}⌉). A node that would exceed τ discards its set
	// and stops relaying; experiment D1 sweeps the resulting trade-off.
	Threshold int
	// Seed is the engine's master seed. The protocol draws no randomness,
	// so every Seed yields a bit-identical transcript and Result; the
	// field exists so tests can pin exactly that.
	Seed uint64
	// Runtime configures the engine (see congest.Runtime); transcripts
	// are bit-identical for every setting.
	congest.Runtime
	// Cancel aborts the broadcast session at the next round boundary when
	// tripped (see congest.CancelFlag); untripped it changes nothing.
	Cancel *congest.CancelFlag
	// Observe receives each completed engine session's round count and
	// wall clock (see congest.Engine.Observe); purely passive — the
	// transcript stays a pure function of the graph.
	Observe func(rounds int, wall time.Duration)
}

// Result reports a deterministic detection run.
type Result struct {
	// Verdict is Found iff a verified C_2k was reconstructed; Witness
	// then holds the cycle. Its Costs are the single broadcast session's
	// cost; MaxCongestion is the largest walk-key set any node
	// accumulated (bounded by the threshold).
	congest.Verdict
	// Detector is the node whose walk collision found the cycle.
	Detector graph.NodeID
	// Candidates is the number of walk collisions examined; collisions
	// whose reconstruction is not a simple 2k-cycle are discarded.
	Candidates int
	// Threshold echoes the τ used.
	Threshold int
}

// DefaultThreshold is the faithful per-node identifier cap
// τ = ⌈2k·n^{1-1/k}⌉ of the deterministic algorithm's Θ(n^{1-1/k}) regime.
func DefaultThreshold(n, k int) int {
	if n < 2 {
		return 1
	}
	return int(math.Ceil(2 * float64(k) * math.Pow(float64(n), 1-1/float64(k))))
}

// candidate records one terminal walk collision: two walks of length k
// from Src meet at Node, the first via the first-parent store and the
// second via the distinct last hop Second. Every distinct second parent
// yields its own candidate (a neighbor relays a given key at most once,
// so arrivals per (Node, Src, Second) are unique), which lets witness
// verification try every pairing rather than only the earliest.
type candidate struct {
	Node   graph.NodeID
	Src    graph.NodeID
	Second graph.NodeID
}

// detProto is the broadcast-CONGEST handler. All per-node state is touched
// only by that node's handler invocation; detections go to one buffer in
// arrival order and are sorted into a canonical order after the session.
type detProto struct {
	k   uint64 // target walk length (half cycle length)
	tau int32
	// tauAt, when non-nil, overrides tau per node. Fused disjoint-union
	// sessions set it so every component runs under its own
	// DefaultThreshold(n_i, k) — τ is the protocol's only n-dependent
	// parameter, and solo-identical transcripts require the component's
	// own n, not the union's.
	tauAt []int32

	// first maps walk key → first parent (the neighbor whose relay
	// created the entry). Terminal keys arriving again over a different
	// last hop are the detection events; the extra parents live in the
	// candidate records, not in a store.
	first *idset.Store

	// over[v] is set when v's set hit the threshold.
	over []bool

	// Pending relays, drained one broadcast per round (pipelined). Every
	// node's queue starts in its region of one slab, node v's being
	// qslab[qOff[v]:qOff[v+1]], sized from the graph when the protocol is
	// built; a queue that outgrows its region moves to an array of its
	// own, and cap(queue[v]) == qOff[v+1]-qOff[v] tells the two apart.
	queue [][]uint64
	qIdx  []int32
	qslab []uint64
	qOff  []uint32

	// dets holds the candidates in arrival order.
	dets []candidate

	// walk is witness's 2k-slot scratch buffer.
	walk []graph.NodeID
}

var _ congest.Handler = (*detProto)(nil)

// takeDetProto returns a protocol for g, the session's network graph:
// the arena's retained one when one has the capacity, else a fresh one
// laid out for g (see newDetProto), reset for (k, τ). tauAt, when
// non-nil, is the per-node τ of a fused batch.
func takeDetProto(arena *congest.Arena, g *graph.Graph, k, tau int, tauAt []int32) *detProto {
	n := g.NumNodes()
	p := congest.Take[detProto](arena, n, 0)
	if p == nil {
		p = newDetProto(g, k, idset.CapLen(tau), tauAt)
	}
	p.reset(n, k, tau, tauAt)
	return p
}

// newDetProto builds a protocol for g in its final layout, so a cold run
// grows nothing node by node. Node u's walk-key set holds at most τ keys,
// one per (source, length): its length-1 keys, one per neighbor; its
// length-2 keys, one per node s ≠ u two hops away; and, at k ≥ 3, its
// length-3 keys, one per source s ≠ u in a neighbor w's length-2 set,
// however many walks reach it (a walk back to its source is dropped).
// Its table is sized for that many, capped at τ, which bounds the whole
// set at k ≤ 3, and counting distinct sources rather than walks keeps a
// graph dense in short cycles from sizing tables far past their sets.
// Its relay queue holds the keys shorter than k among them. Longer walks
// (k ≥ 4) add keys and relays that the sizes leave out; those sets and
// queues grow as in a retained protocol.
func newDetProto(g *graph.Graph, k int, tau int32, tauAt []int32) *detProto {
	n := g.NumNodes()
	hints := make([]int32, n)
	qOff := make([]uint32, n+1)
	// seen2[s] == u+1: s is counted among u's length-2 sources; seen3
	// likewise for length 3.
	seen2 := make([]int32, n)
	var seen3 []int32
	if k >= 3 {
		seen3 = make([]int32, n)
	}
	for u := range n {
		t := int(tau)
		if tauAt != nil {
			t = int(tauAt[u])
		}
		mark := int32(u + 1)
		nbrs := g.Neighbors(graph.NodeID(u))
		// keys[h] counts u's length-(h+1) keys, each family stopping
		// where the total reaches t.
		keys := [3]int{len(nbrs)}
	count2:
		for _, w := range nbrs {
			for _, s := range g.Neighbors(w) {
				if keys[0]+keys[1] >= t {
					break count2
				}
				if int(s) != u && seen2[s] != mark {
					seen2[s] = mark
					keys[1]++
				}
			}
		}
		if k >= 3 {
		count3:
			for _, w := range nbrs {
				for _, x := range g.Neighbors(w) {
					for _, s := range g.Neighbors(x) {
						if keys[0]+keys[1]+keys[2] >= t {
							break count3
						}
						if int(s) != u && s != w && seen3[s] != mark {
							seen3[s] = mark
							keys[2]++
						}
					}
				}
			}
		}
		hints[u] = int32(min(keys[0]+keys[1]+keys[2], t))
		relays := 0
		for h := range min(k-1, len(keys)) {
			relays += keys[h]
		}
		qOff[u+1] = qOff[u] + uint32(min(relays, t))
	}
	p := &detProto{
		first: idset.NewSized(hints),
		over:  make([]bool, n),
		queue: make([][]uint64, n),
		qIdx:  make([]int32, n),
		qslab: make([]uint64, qOff[n]),
		qOff:  qOff,
	}
	for v := range p.queue {
		p.queue[v] = p.homeQueue(v)
	}
	return p
}

// homeQueue is node v's empty relay queue in the slab.
func (p *detProto) homeQueue(v int) []uint64 {
	return p.qslab[p.qOff[v]:p.qOff[v]:p.qOff[v+1]]
}

// inSlab reports whether queue q, node v's, still lives in its slab
// region: a queue that outgrew it has a larger capacity.
func (p *detProto) inSlab(v int, q []uint64) bool {
	return cap(q) == int(p.qOff[v+1]-p.qOff[v])
}

// reset prepares a (possibly retained) protocol for a run on n ≤
// capacity nodes: per-node state is re-sliced to n and cleared (a run
// reads no cell past n), and the candidate buffer is emptied; queues,
// walk-key tables and the candidate buffer keep their capacity.
func (p *detProto) reset(n, k, tau int, tauAt []int32) {
	p.k, p.tau, p.tauAt = uint64(k), idset.CapLen(tau), tauAt
	p.dets = p.dets[:0]
	p.over, p.queue, p.qIdx = p.over[:n], p.queue[:n], p.qIdx[:n]
	clear(p.over)
	for v, q := range p.queue {
		if len(q) > 0 {
			p.queue[v] = q[:0]
		}
	}
	clear(p.qIdx)
	p.first.Reset(n)
}

// keep offers the protocol to the arena once its run has been read.
func (p *detProto) keep(arena *congest.Arena) {
	if arena == nil {
		return
	}
	p.tauAt = nil
	// Trim what this run did not need, so the retained state follows the
	// last graph, not the union of every graph it served. The slabs stay
	// whole: their regions are not separate allocations.
	p.first.Trim()
	for v, q := range p.queue[:cap(p.queue)] {
		if !p.inSlab(v, q) && cap(q) > 2*max(len(q), 4) {
			p.queue[v] = p.homeQueue(v)
		}
	}
	congest.Keep(arena, p, cap(p.over), 0, p.retainedBytes())
}

// retainedBytes is the protocol's size across its whole capacity: the
// walk-key store, the per-node arrays, the queue slab and every queue
// grown out of it, and the candidate and witness buffers.
func (p *detProto) retainedBytes() int64 {
	c := cap(p.over)
	bytes := p.first.Bytes() + int64(c)*(1+24+4+4) + int64(cap(p.qslab))*8
	for v, q := range p.queue[:c] {
		if !p.inSlab(v, q) {
			bytes += int64(cap(q)) * 8
		}
	}
	return bytes + int64(cap(p.dets))*12 + int64(cap(p.walk))*4
}

func (p *detProto) Init(rt *congest.Session) {
	for u := 0; u < rt.N(); u++ {
		rt.WakeAt(graph.NodeID(u), 0)
	}
}

func (p *detProto) HandleRound(rt *congest.Session, u graph.NodeID, r int, inbox []congest.Message) {
	if r == 0 {
		// Round 0: every node announces itself as a walk of length 0.
		rt.Broadcast(u, kindWalk, uint64(u), 0)
		return
	}
	for _, m := range inbox {
		p.accept(u, m)
	}
	if p.over[u] {
		return
	}
	if q := p.queue[u]; int(p.qIdx[u]) < len(q) {
		key := q[p.qIdx[u]]
		p.qIdx[u]++
		rt.Broadcast(u, kindWalk, key>>hopBits, key&hopMask)
		if int(p.qIdx[u]) < len(q) {
			rt.WakeAt(u, r+1)
		}
	}
}

// accept extends an incoming walk announcement by one hop: record the key,
// enqueue a relay while the walk is still short of k, and detect when a
// terminal key arrives over a second distinct last hop.
func (p *detProto) accept(u graph.NodeID, m congest.Message) {
	if p.over[u] || m.Kind() != kindWalk {
		return
	}
	src := m.A()
	if graph.NodeID(src) == u {
		// A walk that returned to its source certifies nothing at length
		// ≤ k; dropping it also keeps parent chains acyclic at the source.
		return
	}
	h := m.B() + 1
	key := walkKey(src, h)
	tau := p.tau
	if p.tauAt != nil {
		tau = p.tauAt[u]
	}
	inserted, capped := p.first.InsertCapped(u, key, int32(m.From()), tau)
	if capped {
		// Instruction-19 semantics: the set is discarded — stop accepting
		// and cancel the relays not yet sent (those already broadcast
		// remain valid walk certificates downstream).
		p.over[u] = true
		p.queue[u] = p.queue[u][:p.qIdx[u]]
		return
	}
	if inserted {
		if h < p.k {
			p.queue[u] = append(p.queue[u], key)
		}
		return
	}
	// Duplicate key: a second walk of the same length from the same
	// source. Only terminal collisions over a distinct last hop can close
	// a C_2k; each distinct second parent is its own candidate, so
	// verification can fall back to a later pairing when the earliest
	// reconstructs a non-simple walk.
	if h != p.k {
		return
	}
	if firstParent, _ := p.first.Get(u, key); firstParent == int32(m.From()) {
		return
	}
	p.dets = append(p.dets, candidate{Node: u, Src: graph.NodeID(src), Second: m.From()})
}

// candidates sorts the detection buffer into a canonical order
// (ascending node, then source, then second parent: each triple is
// unique), erasing the arrival order, and returns it; it is
// valid until the protocol's next reset.
func (p *detProto) candidates() []candidate {
	out := p.dets
	slices.SortFunc(out, func(a, b candidate) int {
		if a.Node != b.Node {
			return int(a.Node) - int(b.Node)
		}
		if a.Src != b.Src {
			return int(a.Src) - int(b.Src)
		}
		return int(a.Second) - int(b.Second)
	})
	return out
}

// witness reconstructs the closed walk of a candidate from the recorded
// parent pointers, in the same source-to-detector-and-back order as
// core.ColorBFS.Witness: s, v_1, …, v_{k-1}, t, w2, u_{k-2}, …, u_1,
// where the v chain comes from t and the u chain from the second parent
// w2 via the first-parent store. The walk may repeat vertices (walks are
// not paths); the caller verifies simplicity and discards the candidate
// otherwise. The result is the protocol's 2k-slot scratch buffer, valid
// until the next call: the caller copies the witness it accepts.
func (p *detProto) witness(c candidate) ([]graph.NodeID, error) {
	k := int(p.k)
	if cap(p.walk) < 2*k {
		p.walk = make([]graph.NodeID, 2*k)
	}
	w := p.walk[:2*k]
	w[0], w[k], w[k+1] = c.Src, c.Node, c.Second
	if err := p.chain(w[1:k], c.Node, c.Src); err != nil {
		return nil, err
	}
	slices.Reverse(w[1:k]) // the chain runs v_{k-1}, …, v_1
	if err := p.chain(w[k+2:], c.Second, c.Src); err != nil {
		return nil, err
	}
	return w, nil
}

// chain follows src's first-parent pointers back from start, a node at
// walk length len(dst)+1, writing the nodes at lengths len(dst), …, 1
// into dst in that order, and checks that the walk ends at src.
func (p *detProto) chain(dst []graph.NodeID, start, src graph.NodeID) error {
	cur := start
	for h := len(dst) + 1; h >= 1; h-- {
		parent, ok := p.first.Get(cur, walkKey(uint64(src), uint64(h)))
		if !ok {
			return fmt.Errorf("deterministic: parent missing at node %d (length %d)", cur, h)
		}
		cur = graph.NodeID(parent)
		if h > 1 {
			dst[len(dst)+1-h] = cur
		}
	}
	if cur != src {
		return fmt.Errorf("deterministic: walk ended at %d, want source %d", cur, src)
	}
	return nil
}

// Detect runs the deterministic broadcast-CONGEST detector: one pipelined
// engine session in which every node relays exact-length walk
// announcements under the threshold τ, followed by witness reconstruction
// and verification of every walk collision. The guarantee is one-sided
// and deterministic: a reported cycle is always real, and a C_2k-free
// input is never rejected. A present C_2k can go undetected when the
// threshold overflows (Result.Overflowed) or when every recorded
// collision reconstructs a self-intersecting walk (parent chains are
// first-arrival; chords can pollute them, mostly at k ≥ 3 on dense
// instances — experiment D1 tabulates the realized detection rate).
//
// Detect is DetectMulti's batch of one.
func Detect(g *graph.Graph, k int, opt Options) (*Result, error) {
	results, err := DetectMulti([]*graph.Graph{g}, k, opt)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}
