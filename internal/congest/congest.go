package congest

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/graph"
)

// NodeID identifies a node; it coincides with the vertex ID of the
// underlying graph.
type NodeID = graph.NodeID

// Message is the unit of communication: a kind byte plus two payload
// words A and B, i.e. O(log n) bits at the model level (MessageBits is
// what Report.Bits charges, and it is unchanged by how the host stores a
// message). At the host level the struct is packed into 16 bytes:
//
//	w0 = A                                  (a full 64-bit payload word)
//	w1 = Kind(8) | From(28) | B(28)         (kind in the high byte)
//
// compared to the naive layout (kind byte + two words + sender, 24 bytes
// padded) this halves the memory traffic of the inbox and out buffers,
// which the delivery pipeline streams every round. The packing caps the
// network size and the B payload at 2^28 (MaxNodes, MaxPayloadB); both
// are model-faithful bounds — From and B are identifier/counter words of
// ⌈log₂ n⌉ bits — and far beyond what a simulation can hold in memory.
// A keeps the full word because protocols legitimately pack two
// identifiers into it (e.g. an edge key). Read fields through the
// From/Kind/A/B accessors; construction happens inside Send/Broadcast.
type Message struct {
	w0, w1 uint64
}

const (
	msgFieldBits = 28
	msgFieldMask = 1<<msgFieldBits - 1
	msgKindShift = 2 * msgFieldBits

	// MaxNodes is the largest network the packed wire format addresses.
	MaxNodes = 1 << msgFieldBits
	// MaxPayloadB is the capacity of the second payload word B.
	MaxPayloadB = 1<<msgFieldBits - 1
)

// packMessage packs a staged message. Callers guarantee from < MaxNodes
// (enforced by NewNetwork) and b <= MaxPayloadB (enforced by Send).
func packMessage(from NodeID, kind uint8, a, b uint64) Message {
	return Message{
		w0: a,
		w1: uint64(kind)<<msgKindShift | uint64(uint32(from))<<msgFieldBits | b,
	}
}

// From returns the sender, filled in by the runtime at staging time.
func (m Message) From() NodeID { return NodeID(m.w1 >> msgFieldBits & msgFieldMask) }

// Kind returns the kind byte.
func (m Message) Kind() uint8 { return uint8(m.w1 >> msgKindShift) }

// A returns the first payload word.
func (m Message) A() uint64 { return m.w0 }

// B returns the second payload word.
func (m Message) B() uint64 { return m.w1 & msgFieldMask }

// Handler is a distributed protocol: per-node state lives inside the
// implementation, indexed by node ID. The engine invokes HandleRound at
// most once per node per round, one handler at a time, on the session's
// goroutine, in ascending node order within a round; a handler touches
// only its own node's state (the model's locality, which the engine does
// not check).
type Handler interface {
	// Init is called once, before round 0. It typically allocates
	// per-node state and schedules initial wake-ups via rt.WakeAt.
	Init(rt *Session)
	// HandleRound is called for node u at round r with the messages
	// delivered to u at the beginning of r. The inbox slice is valid only
	// for the duration of the call.
	HandleRound(rt *Session, u NodeID, r int, inbox []Message)
}

// Runtime is the engine's state reuse: Engine embeds it, and so does
// every detector's options struct, which hands it to its engines as one
// value.
type Runtime struct {
	// Arena, when set, supplies every session (and, through the detector
	// layers, their per-call state) from state retained across runs and
	// takes it back afterwards; nil allocates per engine. A retained
	// session is re-laid onto the new network, so reuse changes no
	// transcript.
	Arena *Arena
}

// Costs is the CONGEST cost record of a detection run, the quantities
// the paper's analysis bounds. Every Verdict embeds it (hence the JSON
// keys).
type Costs struct {
	// Rounds is the CONGEST time summed over every session of the run.
	Rounds int `json:"rounds"`
	// Messages is the delivered message count, and Bits the model-level
	// bandwidth they consumed (see MessageBits).
	Messages int64 `json:"messages"`
	Bits     int64 `json:"bits"`
	// MaxCongestion is the largest identifier set any node accumulated,
	// the watermark the threshold τ caps.
	MaxCongestion int `json:"max_congestion"`
	// Overflowed reports whether any node hit τ and discarded its set;
	// detection may then be missed, never fabricated.
	Overflowed bool `json:"overflowed"`
}

// Merge folds o into c as sequential composition: rounds, messages and
// bits add, the congestion watermark is the larger, overflow is either.
func (c *Costs) Merge(o Costs) {
	c.Rounds += o.Rounds
	c.Messages += o.Messages
	c.Bits += o.Bits
	c.MaxCongestion = max(c.MaxCongestion, o.MaxCongestion)
	c.Overflowed = c.Overflowed || o.Overflowed
}

// Verdict is the outcome record of a detection run: the verdict, its
// witness, the run's cost and its trial count. Every detector result
// embeds it, the facade's Result is it, and the service's wire response
// embeds it (hence the JSON keys).
type Verdict struct {
	// Found is true iff a target cycle was detected; by one-sidedness
	// the input then contains it, and Witness holds a simple cycle of
	// length FoundLen verified against the input.
	Found   bool           `json:"found"`
	Witness []graph.NodeID `json:"witness,omitempty"`
	// FoundLen is the witness length: the target length, or for
	// bounded-length detection the detected ℓ ≤ 2k; 0 when not found.
	FoundLen int `json:"found_len,omitempty"`
	// Costs is the run's CONGEST cost; its fields marshal inline.
	Costs
	// Iterations is the number of coloring repetitions (trials) the
	// verdict rests on; 0 for the single-session deterministic detectors.
	Iterations int `json:"iterations"`
}

// Report summarizes one engine run.
type Report struct {
	// Rounds is the CONGEST time of the execution: the last round in which
	// any node was active, plus one. Idle gaps before a scheduled wake-up
	// are skipped by the simulator (never executed) but still elapse on the
	// model's clock and are therefore included — a protocol that wakes a
	// node at round 100 and does nothing else reports Rounds = 101. This is
	// the quantity the paper's theorems bound; see the package comment and
	// TestIdleGapsElapseInRounds.
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int64
	// Bits is the model-level bandwidth consumed: every message carries a
	// kind byte plus up to two identifiers/counters, i.e.
	// 8 + 2·⌈log₂ n⌉ bits in the O(log n)-bit regime of the model.
	Bits int64
	// PerComp splits Rounds and Messages by component when the engine has a
	// component map (Engine.SetComponents); nil otherwise. Per-component
	// Bits are deliberately not tracked here: the model charges
	// MessageBits(n) for the component's own n, which only the caller
	// knows (Report.Bits charges the fused network's n and is therefore
	// NOT the sum of the per-component costs).
	PerComp []CompStats
}

// CompStats is the per-component slice of a fused session's cost: the
// component's own CONGEST time (the last round in which one of its nodes
// was active, plus one — idle gaps elapse exactly as in Report.Rounds)
// and the messages its nodes sent. Components of a disjoint union never
// exchange messages, so these equal the counts a solo run of the
// component would report.
type CompStats struct {
	Rounds   int
	Messages int64
}

// MessageBits returns the model-level size of one message on an n-node
// network: a kind byte plus two ⌈log₂ n⌉-bit words. This is the cost the
// paper's bandwidth bound charges and is deliberately decoupled from the
// 16 host bytes a packed Message occupies (see Message): Report.Bits
// tracks the model, not the simulator's memory layout.
func MessageBits(n int) int64 {
	bits := 1
	for 1<<bits < n {
		bits++
	}
	return int64(8 + 2*bits)
}

// Comp returns component c's rounds and messages: PerComp[c] when the
// engine has a component map, and otherwise the report's own totals (a
// network without a map is one component).
func (r *Report) Comp(c int) CompStats {
	if r.PerComp == nil {
		return CompStats{Rounds: r.Rounds, Messages: r.Messages}
	}
	return r.PerComp[c]
}

// Costs returns the report's rounds, messages and bits as a cost record
// (congestion is the caller's protocol-level measure).
func (r *Report) Costs() Costs {
	return Costs{Rounds: r.Rounds, Messages: r.Messages, Bits: r.Bits}
}

// Accumulate adds r's counters into t (for sequential protocol
// composition). Per-component stats accumulate elementwise.
func (t *Report) Accumulate(r *Report) {
	t.Rounds += r.Rounds
	t.Messages += r.Messages
	t.Bits += r.Bits
	if r.PerComp != nil {
		if t.PerComp == nil {
			t.PerComp = make([]CompStats, len(r.PerComp))
		}
		for c := range r.PerComp {
			t.PerComp[c].Rounds += r.PerComp[c].Rounds
			t.PerComp[c].Messages += r.PerComp[c].Messages
		}
	}
}

// Network is the immutable execution substrate: topology plus model
// parameters shared by all sessions run on it.
type Network struct {
	g    *graph.Graph
	seed uint64
	// seedBase, when non-nil, overrides the per-node half of the seed
	// derivation: node u's streams derive from seedBase[u] instead of
	// SeedBase(seed, u). Fused networks use it to give every component the
	// node streams of its own solo network (see NewNetworkSeedBases).
	seedBase []uint64
}

// NewNetwork wraps a graph as a CONGEST network with the given master seed
// (per-node randomness streams are derived from it). Networks beyond
// MaxNodes vertices are rejected: the packed wire format addresses
// senders with 28 bits, a bound no graph that fits in simulator memory
// approaches.
func NewNetwork(g *graph.Graph, seed uint64) *Network {
	if g.NumNodes() > MaxNodes {
		panic(fmt.Sprintf("congest: %d nodes exceeds the %d-node cap of the packed wire format", g.NumNodes(), MaxNodes))
	}
	return &Network{g: g, seed: seed}
}

// Graph returns the underlying topology.
func (n *Network) Graph() *graph.Graph { return n.g }

// NumNodes returns the network size (global knowledge, as in the paper).
func (n *Network) NumNodes() int { return n.g.NumNodes() }

// NewNetworkSeedBases wraps a graph as a CONGEST network whose node
// randomness streams derive from an explicit per-node seed base instead
// of a single master seed: node u's stream for session sess seeds from
// bases[u] combined with the session tag, exactly as a NewNetwork(seed)
// node whose SeedBase(seed, u) equals bases[u]. Fused disjoint-union
// networks use this to make every component's node streams byte-identical
// to the component's own solo network.
func NewNetworkSeedBases(g *graph.Graph, bases []uint64) *Network {
	if len(bases) != g.NumNodes() {
		panic(fmt.Sprintf("congest: %d seed bases for %d nodes", len(bases), g.NumNodes()))
	}
	n := NewNetwork(g, 0)
	n.seedBase = bases
	return n
}

// SeedBase returns the per-node half of the seed derivation: the value
// nodeSeed folds with the session tag for node u on a network with the
// given master seed. It is exported so fused networks can reproduce a
// solo network's node streams via NewNetworkSeedBases.
func SeedBase(seed uint64, u NodeID) uint64 {
	return seed ^ (uint64(u)+1)*0x9e3779b97f4a7c15
}

// nodeSeedXor derives the second PCG word from the first in every node
// stream (see nodeSeed).
const nodeSeedXor = 0x94d049bb133111eb

// nodeSeed derives the first PCG seed word of node u's deterministic
// random stream for session sess. It is the single source of truth for
// the derivation: Session.Rand reseeds its pooled per-node generators
// from it. (The engine's fault-injection stream uses u = -1, which is
// outside any seed-base override and always derives from the master
// seed.)
func (n *Network) nodeSeed(u NodeID, sess uint64) uint64 {
	base := SeedBase(n.seed, u)
	if n.seedBase != nil && u >= 0 {
		base = n.seedBase[u]
	}
	return base ^ (sess+1)*0xbf58476d1ce4e5b9
}

// nodeRand derives the deterministic random stream of node u for session
// sess.
func (n *Network) nodeRand(u NodeID, sess uint64) *rand.Rand {
	s := n.nodeSeed(u, sess)
	return rand.New(rand.NewPCG(s, s^nodeSeedXor))
}

// errProtocol wraps protocol-level violations (bandwidth, locality).
type errProtocol struct{ msg string }

func (e *errProtocol) Error() string { return "congest: " + e.msg }

func protocolErrorf(format string, args ...any) error {
	return &errProtocol{msg: fmt.Sprintf(format, args...)}
}
