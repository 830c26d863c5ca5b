package congest

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
)

// Engine executes handler sessions on a network. All mutable per-session
// state lives in pooled Session objects, so an Engine is safe for
// concurrent Run calls; configure the exported fields before the first Run
// and leave them fixed while runs are in flight. Back-to-back sessions on
// the same engine reuse session buffers and allocate almost nothing; with
// Runtime.Arena set, sessions come from and go back to the arena, so
// they outlive the engine and serve the next one too.
type Engine struct {
	net *Network
	// maxRounds aborts runaway protocols; 0 means defaultMaxRounds. Only
	// tests lower it.
	maxRounds int
	// Runtime sets the parallelism of the handler and delivery phases.
	Runtime
	// DropProb injects adversarial message loss: each staged message is
	// discarded at delivery time with this probability (deterministic
	// given the network seed). The CONGEST model itself is fault-free;
	// this knob exists to machine-check that one-sidedness is structural —
	// under any loss rate the detectors may miss cycles but can never
	// fabricate one. Lossy sessions always deliver serially (the drop
	// RNG consumes one draw per staged message in global staging order).
	DropProb float64
	// Cancel, when set, is polled once per executed round (one atomic
	// load at the round boundary): tripping it makes in-flight and future
	// runs on this engine return ErrCanceled instead of a report, so an
	// abandoned request stops consuming CPU within one round. The poll
	// has no effect on untripped runs — transcripts are bit-identical
	// with or without a flag installed. Configure before the first Run,
	// like every other engine field.
	Cancel *CancelFlag
	// Observe, when set, is called once per completed session with the
	// report's round count and the session's wall-clock duration. The
	// disarmed cost is one nil-check per RunSession — the same
	// discipline as faultpoint — and the armed path adds two
	// monotonic-clock reads outside the round loop, so transcripts,
	// reports, and the session's allocation count are identical either
	// way. The hook runs on the session's goroutine and must not block;
	// it is not called for failed sessions (panic, cancellation).
	// Configure before the first Run, like every other engine field.
	Observe func(rounds int, wall time.Duration)

	// adjOff[u] is the base index of u's adjacency slots in the flat
	// per-edge arrays; adjOff[n] is the total directed-edge count. It is
	// the graph's own CSR row offsets (graph.Graph.Offsets), read-only.
	adjOff []int32

	// comp/numComp split cost accounting by component when set
	// (SetComponents): Report.PerComp then records each component's own
	// rounds and sent-message count.
	comp    []int32
	numComp int

	session  atomic.Uint64
	sessions sync.Pool // of *Session
}

// NewEngine returns an engine for the network.
func NewEngine(net *Network) *Engine {
	e := &Engine{net: net, adjOff: net.g.Offsets()}
	e.sessions.New = func() any { return e.newSession() }
	return e
}

// Network returns the engine's network.
func (e *Engine) Network() *Network { return e.net }

// SetComponents installs a component map (comp[u] in [0, count) for every
// node) and turns on per-component cost accounting: every Report gains a
// PerComp slice with each component's own rounds and sent-message count.
// Intended for disjoint-union networks, where components never exchange
// messages and the split is exact. Call before the first Run and leave it
// fixed. Incompatible with DropProb (per-component message counts are
// taken sender-side, before the delivery drop draw).
func (e *Engine) SetComponents(comp []int32, count int) {
	if len(comp) != e.net.NumNodes() {
		panic(fmt.Sprintf("congest: component map covers %d of %d nodes", len(comp), e.net.NumNodes()))
	}
	e.comp, e.numComp = comp, count
}

const defaultMaxRounds = 50_000_000

// autoSession namespaces engine-assigned session tags away from
// caller-chosen tags (RunSession), so mixing the two styles on one engine
// cannot collide randomness streams.
const autoSession = 1 << 63

// ReserveSessions atomically reserves k consecutive engine-assigned
// session tags and returns the first. Multi-session protocols (e.g. the
// batch color-BFS schedule) reserve their whole range up front so that
// concurrent Run calls interleave without sharing randomness streams.
func (e *Engine) ReserveSessions(k uint64) uint64 {
	return (e.session.Add(k) - k) | autoSession
}

// Run executes one session of the handler under an engine-assigned session
// tag. See RunSession for the execution contract.
func (e *Engine) Run(h Handler) (Report, error) {
	return e.RunSession(h, e.ReserveSessions(1))
}

// RunSession executes one session of the handler until quiescence (no
// pending messages and no scheduled wake-ups), a protocol violation, or
// the round cap. The session tag seeds the per-node randomness streams
// (together with the network's master seed); callers that execute many
// independent sessions concurrently pass explicit tags so the transcript
// of every session is deterministic regardless of scheduling.
//
// The returned Report counts rounds in CONGEST time: Rounds is the index
// of the last round with activity, plus one; idle gaps before a scheduled
// wake-up are not simulated but do elapse (and are therefore counted).
func (e *Engine) RunSession(h Handler, sess uint64) (rep Report, err error) {
	s := e.takeSession()
	// Panic containment: handler panics are recovered inside the round
	// loop and surface as ordinary errors, but if anything escapes run
	// (an engine bug, a panic mid-cleanup), convert it to an error and
	// DROP the session — its invariants are unknown, and repooling it
	// would poison a future run. The happy path repools as always.
	defer func() {
		if r := recover(); r != nil {
			rep, err = Report{}, fmt.Errorf("congest: session panicked: %v", r)
		}
	}()
	var start time.Time
	if e.Observe != nil {
		start = time.Now()
	}
	rep, err = s.run(h, sess)
	s.cleanup()
	e.putSession(s)
	if e.Observe != nil && err == nil {
		e.Observe(rep.Rounds, time.Since(start))
	}
	return rep, err
}

// takeSession returns a session laid out for e's network: from the
// engine's own pool, or with an arena, a retained session re-laid onto
// the network (a fresh one when none has the capacity).
func (e *Engine) takeSession() *Session {
	if e.Arena == nil {
		return e.sessions.Get().(*Session)
	}
	n := e.net.NumNodes()
	if s := Take[Session](e.Arena, n, int(e.adjOff[n])); s != nil {
		s.relay(e)
		return s
	}
	return e.newSession()
}

// putSession hands a cleaned-up session back to where takeSession found
// it. A session offered to the arena drops its engine and network, so
// retention keeps no graph alive.
func (e *Engine) putSession(s *Session) {
	if e.Arena == nil {
		e.sessions.Put(s)
		return
	}
	s.eng, s.net = nil, nil
	Keep(e.Arena, s, cap(s.wake), cap(s.lastSent), s.retainedBytes())
}

// Session holds all mutable state of one engine session. Sessions are
// pooled and reused across runs: every array below is either rebuilt from
// a dirty-list at session end or guarded by a monotone stamp, so reuse
// requires no O(n) clearing and back-to-back sessions allocate ~nothing.
//
// Handlers receive their Session as a parameter: methods marked
// "node-local" may be called only from within HandleRound (or Init) and,
// when called for node u, only by u's handler invocation.
type Session struct {
	eng  *Engine
	net  *Network
	sess uint64

	// stamp is bumped once per executed round and never reset (it spans
	// sessions), so the zero value in any stamped array always misses.
	stamp uint64
	// runGen is bumped once per run; it invalidates the per-node rng
	// streams of the previous session lazily.
	runGen uint64

	round  int
	inInit bool

	// Candidate scheduling: bit u of pool is set iff u may need to run in
	// an upcoming round (it has undelivered messages or a pending
	// wake-up). cand counts the set bits. The bitmap doubles as the
	// dirty-list that makes session cleanup O(candidates), and scanning it
	// yields nodes in ascending ID order without any per-round sort.
	// summary is the second level: bit w of summary is set iff pool[w] is
	// nonzero, so the due-scan and cleanup walk O(active) words instead of
	// O(n/64) — which is what makes the fast-forward/wake-up rounds of
	// sparse schedules cheap on large networks.
	pool    []uint64
	summary []uint64
	cand    int
	due     []NodeID

	// wake[u] = earliest future round at which u wants to run (-1 = none).
	// Written only by u's own handler; reset via the pool bitmap walk.
	wake []int32

	// Outgoing messages staged by senders during the current round,
	// structure-split so the delivery passes touch only what they need:
	// outTo[u] holds the receivers (the counting pass scans 4 bytes per
	// message) and outPay[adjOff[u]+i] the packed message of outTo[u][i]
	// (read only by the scatter pass). Both are written only by u's
	// handler, into one flat CSR buffer each, sized by degree: the
	// bandwidth constraint (one message per directed edge per round) caps
	// len(outTo[u]) at deg(u), so staging never allocates.
	outTo    [][]NodeID
	outPay   []Message
	outToBuf []NodeID

	// Fixed-offset CSR inboxes. The bandwidth constraint caps a
	// receiver's per-round inbox at its degree, so node u's inbox region
	// is statically inboxBuf[adjOff[u]:adjOff[u+1]] and delivery needs no
	// counting or offset pass at all: a single scatter pass bumps each
	// receiver's cursor. inCur[u] packs the validity stamp and the
	// cursor into one 16-byte record (one cache line touch per message);
	// u's inbox for the current round is inboxBuf[adjOff[u]:inCur[u].pos],
	// valid iff inCur[u].stamp matches the round stamp.
	inboxBuf []Message
	inCur    []inboxCursor

	// Parallel round execution. The handler phase steals work off due via
	// the atomic parNext cursor; the delivery phase partitions receivers
	// into contiguous node-range shards (shardBounds[s] ≤ r <
	// shardBounds[s+1] for shard s), each owned by one worker goroutine
	// for both delivery passes, so every inbox cell has exactly one
	// writer and per-receiver message order stays ascending-sender — the
	// same order the serial path produces. All fields are touched only
	// between the Add/Wait pairs of one phase.
	wg          sync.WaitGroup
	parH        Handler
	parRound    int
	parNext     atomic.Int64
	shards      int
	shardBounds []int32
	shardCount  []int64
	shardRecv   [][]NodeID
	sendList    []NodeID
	shardNext   atomic.Int64

	// Prebuilt worker funcvals: `go s.method()` allocates a closure per
	// spawn, so the round phases launch these once-allocated thunks
	// instead, keeping parallel rounds allocation-free.
	handlerFn func()
	scatterFn func()

	// senders lists the due nodes that actually staged messages this
	// round, so the delivery passes walk senders instead of the whole due
	// list. It is maintained by Send/Broadcast only while serialRound is
	// true (handlers executing on the session goroutine — appending from
	// parallel handler workers would race); parallel rounds fall back to
	// walking due. Serial handler execution visits due in ascending
	// order, so senders is ascending too and delivery order is unchanged.
	senders     []NodeID
	serialRound bool

	// layout is the adjOff the CSR regions (outTo) are laid out for; a
	// session re-laid onto the same layout — any engine over the same
	// graph value — skips the per-node rebuild.
	layout []int32

	// lastSent[adjOff[u]+slot] = round stamp at which adjacency slot
	// `slot` of u last carried a message (bandwidth enforcement). The
	// monotone stamp makes per-session clearing unnecessary.
	lastSent []uint64

	// Per-node deterministic random streams, reseeded lazily (on first use
	// within a run) from (network seed, node, session tag). rands[u] wraps
	// &pcgs[u]; both live in flat arrays so creating a session costs two
	// allocations, not one per node.
	pcgs   []rand.PCG
	rands  []rand.Rand
	rngGen []uint64

	// Per-component accounting (Engine.SetComponents): compLast[c] is the
	// last round in which a node of component c ran (-1 = never);
	// compMsgs[c] counts the messages component c's nodes staged. Reset at
	// the start of every run — O(components), not O(n).
	compLast []int32
	compMsgs []int64

	// violation is the session's first failure; fail sets it from any
	// handler goroutine, and the round loop ends the session on it.
	mu        sync.Mutex
	violation error
}

// inboxCursor is a receiver's delivery state: the region
// inboxBuf[beg:pos] is u's inbox for the round whose stamp matches
// (beg is u's static region base adjOff[u], cached here so reading an
// inbox costs one 16-byte load). Exactly 16 bytes: a message delivery
// touches one record in one cache line.
type inboxCursor struct {
	stamp uint64
	beg   int32
	pos   int32
}

func (e *Engine) newSession() *Session {
	n := e.net.NumNodes()
	s := &Session{
		eng:      e,
		net:      e.net,
		pool:     make([]uint64, (n+63)/64),
		summary:  make([]uint64, (n+4095)/4096),
		due:      make([]NodeID, 0, n),
		wake:     make([]int32, n),
		outTo:    make([][]NodeID, n),
		outPay:   make([]Message, e.adjOff[n]),
		outToBuf: make([]NodeID, e.adjOff[n]),
		inboxBuf: make([]Message, e.adjOff[n]),
		inCur:    make([]inboxCursor, n),
		senders:  make([]NodeID, 0, n),
		lastSent: make([]uint64, e.adjOff[n]),
		pcgs:     make([]rand.PCG, n),
		rands:    make([]rand.Rand, n),
		rngGen:   make([]uint64, n),
	}
	for i := range s.wake {
		s.wake[i] = -1
	}
	for u := 0; u < n; u++ {
		s.outTo[u] = s.outToBuf[e.adjOff[u]:e.adjOff[u]:e.adjOff[u+1]]
		s.rands[u] = *rand.New(&s.pcgs[u])
	}
	s.layout = e.adjOff
	s.handlerFn = s.handlerWorker
	s.scatterFn = s.scatterWorker
	return s
}

// relay lays a retained session onto e's network, whose node and
// directed-edge counts fit the session's capacity. Only the slice
// lengths and the CSR regions of outTo change: between runs every
// bitmap word is zero and every wake cell -1 across the whole capacity
// (cleanup restores what a run touched, and cells past a shorter length
// are left as they were), and the monotone stamps make every stale
// inbox, bandwidth and rng cell miss.
func (s *Session) relay(e *Engine) {
	s.eng, s.net = e, e.net
	if len(s.layout) == len(e.adjOff) && &s.layout[0] == &e.adjOff[0] {
		return
	}
	n := e.net.NumNodes()
	m := e.adjOff[n]
	s.pool = s.pool[:(n+63)/64]
	s.summary = s.summary[:(n+4095)/4096]
	s.wake = s.wake[:n]
	s.outTo = s.outTo[:n]
	s.outPay = s.outPay[:m]
	s.outToBuf = s.outToBuf[:m]
	s.inboxBuf = s.inboxBuf[:m]
	s.inCur = s.inCur[:n]
	s.lastSent = s.lastSent[:m]
	s.pcgs = s.pcgs[:n]
	s.rands = s.rands[:n]
	s.rngGen = s.rngGen[:n]
	for u := 0; u < n; u++ {
		s.outTo[u] = s.outToBuf[e.adjOff[u]:e.adjOff[u]:e.adjOff[u+1]]
	}
	s.layout = e.adjOff
	// The shard bounds partition the old node range.
	s.shards = 0
}

// Per-node and per-directed-edge bytes of a session's buffers (see
// newSession), what an Arena charges for retaining one.
const (
	sessionNodeBytes = 100
	sessionEdgeBytes = 44
)

func (s *Session) retainedBytes() int64 {
	return int64(cap(s.wake))*sessionNodeBytes + int64(cap(s.lastSent))*sessionEdgeBytes
}

// N returns the number of nodes in the network (global knowledge).
func (rt *Session) N() int { return rt.net.NumNodes() }

// Degree returns the degree of u (node-local knowledge).
func (rt *Session) Degree(u NodeID) int { return rt.net.g.Degree(u) }

// Neighbors returns u's adjacency list (node-local knowledge). The slice
// must not be modified.
func (rt *Session) Neighbors(u NodeID) []NodeID { return rt.net.g.Neighbors(u) }

// Rand returns u's deterministic random stream for this session.
// Node-local.
func (rt *Session) Rand(u NodeID) *rand.Rand {
	if rt.rngGen[u] != rt.runGen {
		rt.rngGen[u] = rt.runGen
		seed := rt.net.nodeSeed(u, rt.sess)
		rt.pcgs[u].Seed(seed, seed^nodeSeedXor)
	}
	return &rt.rands[u]
}

// Send stages a message from u to its neighbor v for delivery at the start
// of the next round. It enforces the CONGEST constraints: v must be a
// neighbor of u, each directed edge carries at most one message per
// round, and the B payload fits its ⌈log₂ n⌉-bit model word (MaxPayloadB,
// a packed-wire-format capacity no O(log n)-bit protocol approaches).
// Node-local; not callable from Init (no round is executing yet).
func (rt *Session) Send(u, v NodeID, kind uint8, a, b uint64) {
	if rt.inInit {
		rt.fail(protocolErrorf("node %d sent during Init (before round 0)", u))
		return
	}
	if b > MaxPayloadB {
		rt.fail(protocolErrorf("round %d: node %d sent payload B=%d exceeding the %d-bit model word", rt.round, u, b, msgFieldBits))
		return
	}
	slot := rt.neighborSlot(u, v)
	if slot < 0 {
		rt.fail(protocolErrorf("round %d: node %d sent to non-neighbor %d", rt.round, u, v))
		return
	}
	es := rt.eng.adjOff[u] + int32(slot)
	if rt.lastSent[es] == rt.stamp {
		rt.fail(protocolErrorf("round %d: node %d sent twice on edge to %d (bandwidth violation)", rt.round, u, v))
		return
	}
	rt.lastSent[es] = rt.stamp
	if rt.serialRound && len(rt.outTo[u]) == 0 {
		rt.senders = append(rt.senders, u)
	}
	rt.outPay[rt.eng.adjOff[u]+int32(len(rt.outTo[u]))] = packMessage(u, kind, a, b)
	rt.outTo[u] = append(rt.outTo[u], v)
}

// Broadcast stages the same message from u to every neighbor, in
// adjacency order — equivalent to one Send per neighbor (identical
// transcripts, enforced by the same bandwidth stamps) but without the
// per-edge neighbor lookup, which is the dominant Send cost of
// flood-style protocols. Node-local; not callable from Init.
func (rt *Session) Broadcast(u NodeID, kind uint8, a, b uint64) {
	if rt.inInit {
		rt.fail(protocolErrorf("node %d sent during Init (before round 0)", u))
		return
	}
	if b > MaxPayloadB {
		rt.fail(protocolErrorf("round %d: node %d sent payload B=%d exceeding the %d-bit model word", rt.round, u, b, msgFieldBits))
		return
	}
	out := rt.outTo[u]
	if len(out) > 0 {
		// A broadcast uses every one of u's edges, so any earlier staging
		// this round already makes it a bandwidth violation — rejecting it
		// here (rather than mid-loop) also keeps the payload region below
		// within u's own CSR segment.
		rt.fail(protocolErrorf("round %d: node %d broadcast after already sending to %d (bandwidth violation)", rt.round, u, out[0]))
		return
	}
	msg := packMessage(u, kind, a, b)
	base := rt.eng.adjOff[u]
	nbrs := rt.net.g.Neighbors(u)
	if rt.serialRound && len(nbrs) > 0 {
		rt.senders = append(rt.senders, u)
	}
	// len(out) == 0 means no edge of u carries this round's stamp (every
	// successful Send/Broadcast appends to out), so there is no conflict
	// to check — the stamps only need recording so a later Send on any of
	// these edges fails.
	pay := rt.outPay[base : base+int32(len(nbrs))]
	sent := rt.lastSent[base : base+int32(len(nbrs))]
	for slot := range nbrs {
		sent[slot] = rt.stamp
		pay[slot] = msg
	}
	rt.outTo[u] = append(out, nbrs...)
}

func (rt *Session) neighborSlot(u, v NodeID) int {
	i, found := slices.BinarySearch(rt.net.g.Neighbors(u), v)
	if found {
		return i
	}
	return -1
}

// WakeAt schedules node u to run at round r (which must not be in the
// past). Node-local (or from Init, where the current round is 0).
func (rt *Session) WakeAt(u NodeID, r int) {
	if r < rt.round {
		rt.fail(protocolErrorf("node %d scheduled wake at past round %d (now %d)", u, r, rt.round))
		return
	}
	if rt.wake[u] < 0 || int32(r) < rt.wake[u] {
		rt.wake[u] = int32(r)
	}
	if rt.inInit || rt.serialRound {
		// Init and serial handler rounds run on the session goroutine, so
		// the shared pool bitmap is safe to touch directly; wake-ups from
		// parallel handler rounds are folded in at delivery time.
		rt.setPool(u)
	}
}

func (rt *Session) fail(err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.violation == nil {
		rt.violation = err
	}
}

func (s *Session) setPool(u NodeID) {
	w, m := u>>6, uint64(1)<<(u&63)
	if s.pool[w]&m == 0 {
		if s.pool[w] == 0 {
			s.summary[w>>6] |= 1 << (w & 63)
		}
		s.pool[w] |= m
		s.cand++
	}
}

func (s *Session) clearPool(u NodeID) {
	w, m := u>>6, uint64(1)<<(u&63)
	if s.pool[w]&m != 0 {
		s.pool[w] &^= m
		if s.pool[w] == 0 {
			s.summary[w>>6] &^= 1 << (w & 63)
		}
		s.cand--
	}
}

// inboxOf returns the messages delivered to u for the current round.
func (s *Session) inboxOf(u NodeID) []Message {
	c := s.inCur[u]
	if c.stamp != s.stamp {
		return nil
	}
	return s.inboxBuf[c.beg:c.pos]
}

func (s *Session) inboxCount(u NodeID) int {
	c := s.inCur[u]
	if c.stamp != s.stamp {
		return 0
	}
	return int(c.pos - c.beg)
}

// cleanup restores the session invariants (wake sentinel values, empty
// pool bitmap, empty out buffers) so the Session can be reused. It walks
// only the state the finished run actually touched.
func (s *Session) cleanup() {
	for _, u := range s.due {
		s.wake[u] = -1
		if len(s.outTo[u]) > 0 {
			s.outTo[u] = s.outTo[u][:0]
		}
	}
	s.due = s.due[:0]
	s.senders = s.senders[:0]
	s.serialRound = false
	if s.cand > 0 {
		for si, sw := range s.summary {
			for sw != 0 {
				sb := bits.TrailingZeros64(sw)
				sw &^= 1 << sb
				wi := si<<6 | sb
				for w := s.pool[wi]; w != 0; {
					b := bits.TrailingZeros64(w)
					w &^= 1 << b
					s.wake[NodeID(wi<<6|b)] = -1
				}
				s.pool[wi] = 0
			}
			s.summary[si] = 0
		}
		s.cand = 0
	}
	// A session that ended early (violation, round cap, cancellation) can
	// leave inboxes stamped for the round after its last delivery.
	// Burning one stamp value here guarantees no future round ever matches
	// a leftover stamp, without clearing the stamp array.
	s.stamp++
	s.violation = nil
}

// run executes one session. The Session must satisfy the cleanup
// invariants on entry.
func (s *Session) run(h Handler, sess uint64) (Report, error) {
	e := s.eng
	n := s.net.NumNodes()
	s.sess = sess
	s.runGen++
	s.round = 0

	s.inInit = true
	s.guardedInit(h)
	s.inInit = false
	if s.violation != nil {
		return Report{}, s.violation
	}

	maxRounds := e.maxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var rep Report
	msgBits := MessageBits(n)
	var dropRng *rand.Rand
	if e.DropProb > 0 {
		if e.numComp > 0 {
			return Report{}, fmt.Errorf("congest: per-component accounting is incompatible with DropProb (sender-side counts)")
		}
		dropRng = s.net.nodeRand(-1, sess)
	}
	if e.numComp > 0 {
		if len(s.compLast) != e.numComp {
			s.compLast = make([]int32, e.numComp)
			s.compMsgs = make([]int64, e.numComp)
		}
		for c := range s.compLast {
			s.compLast[c] = -1
			s.compMsgs[c] = 0
		}
	}
	s.ensureShards(deliveryShards(workers, n))

	cancel := e.Cancel
	for round := 0; s.cand > 0; round++ {
		// Cooperative cancellation checkpoint: one nil-guarded atomic
		// load per executed round. An abandoned request's session stops
		// here instead of running to quiescence.
		if cancel.Canceled() {
			return Report{}, ErrCanceled
		}
		if faultpoint.Enabled() {
			faultpoint.Sleep(faultpoint.RoundStall)
		}
		if round >= maxRounds {
			return Report{}, fmt.Errorf("congest: exceeded %d rounds (runaway protocol?)", maxRounds)
		}
		s.stamp++

		// Scan the candidate bitmap through the summary level (ascending
		// node order): nodes due now run; the rest wait for a future
		// wake-up. The walk costs O(active words), not O(n/64).
		s.due = s.due[:0]
		earliest := int32(-1)
		inbound := 0
		for si, sw := range s.summary {
			for sw != 0 {
				sb := bits.TrailingZeros64(sw)
				sw &^= 1 << sb
				wi := si<<6 | sb
				for w := s.pool[wi]; w != 0; {
					b := bits.TrailingZeros64(w)
					w &^= 1 << b
					u := NodeID(wi<<6 | b)
					wk := s.wake[u]
					if c := s.inCur[u]; c.stamp == s.stamp {
						inbound += int(c.pos - c.beg)
						s.due = append(s.due, u)
						if wk >= 0 && int(wk) <= round {
							s.wake[u] = -1
							s.clearPool(u)
						} else if wk < 0 {
							s.clearPool(u)
						}
						// A pending future wake keeps the node a candidate.
					} else if wk >= 0 && int(wk) <= round {
						s.due = append(s.due, u)
						s.wake[u] = -1
						s.clearPool(u)
					} else if earliest < 0 || wk < earliest {
						earliest = wk
					}
				}
			}
		}
		if len(s.due) == 0 {
			// Fast-forward the clock to the earliest scheduled wake-up.
			// The skipped rounds still elapse in CONGEST time (they are
			// counted by Report.Rounds); only their simulation is skipped.
			round = int(earliest) - 1
			continue
		}
		s.round = round
		rep.Rounds = round + 1
		if e.numComp > 0 {
			for _, u := range s.due {
				s.compLast[e.comp[u]] = int32(round)
			}
		}

		// Execute handlers (possibly in parallel).
		serialHandlers := e.runHandlers(s, h, round, workers, len(s.due)+inbound)
		if s.violation != nil {
			return Report{}, s.violation
		}

		delivered := s.deliver(dropRng, serialHandlers)
		rep.Messages += delivered
		rep.Bits += msgBits * delivered
	}
	if e.numComp > 0 {
		rep.PerComp = make([]CompStats, e.numComp)
		for c := range rep.PerComp {
			rep.PerComp[c] = CompStats{Rounds: int(s.compLast[c]) + 1, Messages: s.compMsgs[c]}
		}
	}
	return rep, nil
}

// handlerGrain is the work-stealing batch: workers claim this many due
// nodes per atomic increment. Small enough that one expensive handler
// cannot strand a worker behind a prefilled chunk, large enough that the
// cursor is not contended per node.
const handlerGrain = 16

// defaultParallelThreshold is Runtime.ParallelThreshold's default; the
// Runtime doc gives its unit and the sweep behind the value.
const defaultParallelThreshold = 24576

func (e *Engine) parallelThreshold() int {
	if e.ParallelThreshold > 0 {
		return e.ParallelThreshold
	}
	return defaultParallelThreshold
}

// runHandlers invokes the handler for every due node, in parallel when
// the round's volume (due handlers plus the messages in their inboxes)
// reaches the parallel threshold, and reports whether it ran serially
// (on the session goroutine). Parallel execution steals
// handlerGrain-sized batches off the shared due cursor, so uneven
// handler costs rebalance instead of idling statically chunked workers.
func (e *Engine) runHandlers(s *Session, h Handler, round, workers, volume int) bool {
	due := s.due
	if workers <= 1 || volume < e.parallelThreshold() {
		s.serialRound = true
		s.senders = s.senders[:0]
		s.serialHandlers(h, due, round)
		s.serialRound = false
		return true
	}
	if maxW := (len(due) + handlerGrain - 1) / handlerGrain; workers > maxW {
		workers = maxW
	}
	s.parH, s.parRound = h, round
	s.parNext.Store(0)
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.handlerFn()
	}
	s.wg.Wait()
	s.parH = nil
	return false
}

func (s *Session) handlerWorker() {
	defer s.wg.Done()
	defer s.recoverHandlerPanic()
	h, round, due := s.parH, s.parRound, s.due
	for {
		lo := int(s.parNext.Add(handlerGrain)) - handlerGrain
		if lo >= len(due) {
			return
		}
		for _, u := range due[lo:min(lo+handlerGrain, len(due))] {
			h.HandleRound(s, u, round, s.inboxOf(u))
		}
	}
}

// serialHandlers runs the round's due handlers on the session goroutine,
// under the same recover fence as parallel workers: a panicking handler
// fails the session (the remaining due nodes are skipped — the session
// is already doomed) instead of unwinding through RunSession and
// dropping the pooled session.
func (s *Session) serialHandlers(h Handler, due []NodeID, round int) {
	defer s.recoverHandlerPanic()
	for _, u := range due {
		h.HandleRound(s, u, round, s.inboxOf(u))
	}
}

// guardedInit runs h.Init under the handler recover fence, so a
// panicking Init surfaces as a session error instead of killing the
// process or poisoning the pool.
func (s *Session) guardedInit(h Handler) {
	defer s.recoverHandlerPanic()
	h.Init(s)
}

// recoverHandlerPanic is the deferred fence shared by Init, serial
// rounds and parallel workers. It converts a handler panic into a
// session failure (first failure wins) so the
// session unwinds through the normal violation path and stays poolable.
func (s *Session) recoverHandlerPanic() {
	if r := recover(); r != nil {
		s.fail(fmt.Errorf("congest: handler panicked in round %d: %v", s.round, r))
	}
}

// deliveryShards picks the receiver-shard count for this run: one shard
// per worker, bounded so a shard never covers fewer than 64 nodes (below
// that the two full-buffer scans per shard cost more than they
// parallelize).
func deliveryShards(workers, n int) int {
	return max(min(workers, n/64), 1)
}

// ensureShards sizes the shard state for k contiguous node-range shards.
func (s *Session) ensureShards(k int) {
	if s.shards == k {
		return
	}
	if k <= 1 {
		// Serial delivery never touches the shard state.
		s.shards = k
		return
	}
	s.shards = k
	n := s.net.NumNodes()
	if cap(s.shardBounds) < k+1 {
		s.shardBounds = make([]int32, k+1)
		s.shardCount = make([]int64, k)
		s.shardRecv = make([][]NodeID, k)
	}
	s.shardBounds = s.shardBounds[:k+1]
	s.shardCount = s.shardCount[:k]
	s.shardRecv = s.shardRecv[:k]
	for i := 0; i <= k; i++ {
		s.shardBounds[i] = int32(i * n / k)
	}
}

// deliver moves the round's staged messages into the fixed-offset
// inboxes of the next round and refreshes the candidate bitmap: message
// receivers, re-woken due nodes (waiting nodes never left the bitmap).
// Both paths scatter in ascending-sender order into each receiver's
// static CSR region, so per-receiver inboxes are identical for every
// Workers setting. Returns the delivered count.
func (s *Session) deliver(dropRng *rand.Rand, serialHandlers bool) int64 {
	// After a serial handler round the senders list is exact; parallel
	// rounds walk the whole due list instead, and their wake-ups (which
	// serial rounds folded into the bitmap directly) are folded in here.
	senders := s.due
	if serialHandlers {
		senders = s.senders
	}
	var delivered int64
	if s.shards > 1 && dropRng == nil {
		staged := 0
		for _, u := range senders {
			staged += len(s.outTo[u])
		}
		if staged >= s.eng.parallelThreshold() {
			delivered = s.deliverSharded(senders)
		} else {
			delivered = s.deliverSerial(senders, dropRng)
		}
	} else {
		delivered = s.deliverSerial(senders, dropRng)
	}
	if s.eng.numComp > 0 {
		// Sender-side per-component counts: exact because components are
		// forbidden together with DropProb, so staged == delivered.
		for _, u := range senders {
			s.compMsgs[s.eng.comp[u]] += int64(len(s.outTo[u]))
		}
	}
	for _, u := range senders {
		if len(s.outTo[u]) > 0 {
			s.outTo[u] = s.outTo[u][:0]
		}
	}
	if !serialHandlers {
		for _, u := range s.due {
			if s.wake[u] >= 0 {
				s.setPool(u)
			}
		}
	}
	return delivered
}

// deliverSerial is the single-threaded delivery path: one scatter pass
// over the staged out buffers. Receiver regions are static (adjOff), so
// there is nothing to count or place; each message is one cursor bump
// and one 16-byte copy, and the per-message drop draw (when fault
// injection is on) happens in the same global staging order as always.
func (s *Session) deliverSerial(senders []NodeID, dropRng *rand.Rand) int64 {
	nextStamp := s.stamp + 1
	adjOff := s.eng.adjOff
	var delivered int64
	for _, u := range senders {
		out := s.outTo[u]
		pay := s.outPay[adjOff[u]:]
		for i, r := range out {
			if dropRng != nil && dropRng.Float64() < s.eng.DropProb {
				continue
			}
			c := &s.inCur[r]
			if c.stamp != nextStamp {
				c.stamp = nextStamp
				c.beg = adjOff[r]
				c.pos = c.beg
				s.setPool(r)
			}
			s.inboxBuf[c.pos] = pay[i]
			c.pos++
			delivered++
		}
	}
	return delivered
}

// deliverSharded is the parallel delivery path: receivers are
// partitioned into contiguous node-range shards (never more than
// workers; see deliveryShards) and one goroutine per shard scans the
// full staged buffers, scattering only its own shard's messages. Fixed receiver regions mean one parallel pass suffices (no
// count/offset phase or barrier between them); every inbox cell has
// exactly one writer, the random-access traffic splits across workers,
// and per-receiver order stays ascending-sender (workers walk the
// sender list in ascending order, one message per directed edge per
// round) — bit-identical to the serial path.
func (s *Session) deliverSharded(senders []NodeID) int64 {
	s.sendList = senders
	shards := s.shards
	s.shardNext.Store(0)
	s.wg.Add(shards)
	for i := 0; i < shards; i++ {
		go s.scatterFn()
	}
	s.wg.Wait()
	var delivered int64
	// The pool bitmap, its summary and the cand counter are shared across
	// shards, so receivers are folded in serially (O(receivers)).
	for sh := 0; sh < shards; sh++ {
		delivered += s.shardCount[sh]
		for _, r := range s.shardRecv[sh] {
			s.setPool(r)
		}
	}
	s.sendList = nil
	return delivered
}

// scatterWorker claims the next unowned shard off the cursor and
// scatters it; deliverSharded starts one per shard.
func (s *Session) scatterWorker() {
	defer s.wg.Done()
	s.scatterShard(int(s.shardNext.Add(1)) - 1)
}

func (s *Session) scatterShard(sh int) {
	lo, hi := s.shardBounds[sh], s.shardBounds[sh+1]
	nextStamp := s.stamp + 1
	adjOff := s.eng.adjOff
	recv := s.shardRecv[sh][:0]
	count := int64(0)
	for _, u := range s.sendList {
		out := s.outTo[u]
		pay := s.outPay[adjOff[u]:]
		for i, r := range out {
			if r < lo || r >= hi {
				continue
			}
			c := &s.inCur[r]
			if c.stamp != nextStamp {
				c.stamp = nextStamp
				c.beg = adjOff[r]
				c.pos = c.beg
				recv = append(recv, r)
			}
			s.inboxBuf[c.pos] = pay[i]
			c.pos++
			count++
		}
	}
	s.shardRecv[sh] = recv
	s.shardCount[sh] = count
}
