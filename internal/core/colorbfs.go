package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/idset"
)

// Message kinds used by color-BFS sessions.
const (
	kindSeed uint8 = 10 // phase-1 message from a color-0 seed; A = seed ID
	kindFwd  uint8 = 11 // forwarded identifier; A = seed ID, B = senderColor | dir<<8
)

const dirDesc = 1 << 8

// ColorBFSSpec describes one invocation of the color-BFS-with-threshold
// procedure color-BFS(k, H, c, X, τ) of Algorithm 1, generalized to
//
//   - arbitrary cycle length L (even L = 2k as in Algorithm 1, odd
//     L = 2k+1 as in Section 3.4),
//   - randomized seed activation with probability SeedProb and an
//     alternative constant threshold, which yields exactly Algorithm 2
//     (randomized-color-BFS) when SeedProb = 1/τ and Threshold = 4,
//   - an optional merged mode (DetectSkip) in which nodes colored m+1 also
//     feed nodes colored m-1, detecting C_{L-1} in the same run
//     (Section 3.5's conjoint testing of C_{2ℓ-1} and C_{2ℓ}).
//
// Vertices of H are those with InH true; seeds are InX ∩ InH with color 0.
// The search looks for an identifier that travelled from a seed to a node
// colored m = ⌊L/2⌋ along two well-colored paths: ascending through colors
// 0,1,…,m and descending through colors 0,L-1,…,m.
type ColorBFSSpec struct {
	L          int     // target cycle length, ≥ 3
	Color      []int8  // c(v) ∈ {0,…,L-1} for every vertex
	InH        []bool  // subgraph membership
	InX        []bool  // seed-set membership
	Threshold  int     // τ: forwarders discard their set when it exceeds τ
	SeedProb   float64 // activation probability of each seed (Algorithm 2)
	DetectSkip bool    // additionally detect C_{L-1} (merged F_{2k} mode)
	Pipelined  bool    // pipelined schedule instead of the batch schedule
	// ThresholdAt, when non-nil, overrides Threshold per node. τ is
	// n-dependent (Θ(n^{1-1/k})), so a fused disjoint-union session sets
	// each component's nodes to the component's own τ — the condition for
	// the component's transcript to match a solo run. Threshold is ignored
	// when set (pass 1 to satisfy validation).
	ThresholdAt []int32
}

// Detection records one identifier collision at a detector node, i.e. one
// discovered cycle.
type Detection struct {
	Node graph.NodeID
	Seed uint64
	Skip bool // true: a C_{L-1} found via the merged mode
}

// ColorBFS executes one color-BFS invocation on an engine. Instances are
// reusable: a ColorBFSPool hands out reset instances whose identifier-set
// tables, forwarding queues and detection buffers are retained across
// invocations, so the steady state of a pooled instance allocates nothing
// per invocation (see internal/idset for the set representation).
type ColorBFS struct {
	spec ColorBFSSpec
	n    int
	m    int // detector color ⌊L/2⌋
	tmax int // number of forwarding phases: max(m, L-m)

	// Per-node identifier sets, storing id → parent (the neighbor that
	// first delivered the id), which is the information witness extraction
	// walks. Each node's set is touched only by that node's handler
	// invocation.
	asc, desc, skip *idset.Store
	ascOver         []bool
	descOver        []bool

	// detections holds the collisions in arrival order; RunSessions sorts
	// it into a canonical order after the engine sessions end.
	detections []Detection

	// Forwarding queues, shared by the batch phases (each node transmits in
	// exactly one phase, so a drained queue never aliases a later phase's)
	// and by the pipelined schedule. Every queue starts as a slice of one
	// shared slab (queueSlabCap entries per node, covering seeds and small
	// forwarder sets without a first-touch allocation per node); queues
	// that outgrow the slab segment get individual backing from append.
	queue     [][]uint64
	queueIdx  []int32
	queueSlab []uint64

	// over mirrors "any entry of ascOver/descOver is set" so Overflowed is
	// O(1) instead of a 2n-wide scan per invocation.
	over bool

	// batch and pipe are the handlers of the two schedules, kept here so
	// a run does not allocate one.
	batch batchPhase
	pipe  pipelinedRun

	// Send-phase buckets, cached across invocations: bucketSeeds lists
	// the color-0 vertices and bucketPhase[p-2] the vertices transmitting
	// in batch phase p ≥ 2, for the coloring snapshot held in bucketColor
	// (compared by content) at cycle length bucketL. The buckets depend
	// only on (L, Color), so the three color-BFS calls of one trial —
	// same coloring, different H and X, which initSender rechecks —
	// bucket the graph once instead of once per call and phase.
	bucketL     int
	bucketColor []int8
	bucketSeeds []graph.NodeID
	bucketPhase [][]graph.NodeID
}

// validateSpec checks a spec against a graph on n vertices.
func validateSpec(n int, spec ColorBFSSpec) error {
	if spec.L < 3 || spec.L > MaxCycleLen {
		return fmt.Errorf("core: cycle length %d outside [3, %d]", spec.L, MaxCycleLen)
	}
	if len(spec.Color) != n || len(spec.InH) != n || len(spec.InX) != n {
		return fmt.Errorf("core: spec arrays must have length %d", n)
	}
	if spec.Threshold < 1 {
		return fmt.Errorf("core: threshold %d < 1", spec.Threshold)
	}
	if spec.SeedProb <= 0 || spec.SeedProb > 1 {
		return fmt.Errorf("core: seed probability %v outside (0,1]", spec.SeedProb)
	}
	if spec.DetectSkip && spec.L%2 != 0 {
		return fmt.Errorf("core: merged C_{L-1} mode requires even L, got %d", spec.L)
	}
	if spec.ThresholdAt != nil {
		if len(spec.ThresholdAt) != n {
			return fmt.Errorf("core: per-node threshold array has length %d, want %d", len(spec.ThresholdAt), n)
		}
		for v, t := range spec.ThresholdAt {
			if t < 1 {
				return fmt.Errorf("core: per-node threshold %d < 1 at node %d", t, v)
			}
		}
	}
	return nil
}

// NewColorBFS validates the spec and prepares an invocation for a graph on
// n vertices. Callers that execute many invocations should use a
// ColorBFSPool instead, which reuses instances.
func NewColorBFS(n int, spec ColorBFSSpec) (*ColorBFS, error) {
	if err := validateSpec(n, spec); err != nil {
		return nil, err
	}
	b := newColorBFS(n)
	b.reset(n, spec)
	return b, nil
}

// queueSlabCap is the per-node segment size of the shared forwarding-
// queue slab.
const queueSlabCap = 4

// newColorBFS allocates the per-node state for an n-vertex graph.
func newColorBFS(n int) *ColorBFS {
	b := &ColorBFS{
		n:        n,
		asc:      idset.New(n),
		desc:     idset.New(n),
		ascOver:  make([]bool, n),
		descOver: make([]bool, n),
		queue:    make([][]uint64, n),
		queueIdx: make([]int32, n),
	}
	b.queueSlab = make([]uint64, n*queueSlabCap)
	for v := range b.queue {
		b.queue[v] = b.slabQueue(v)
	}
	return b
}

// slabQueue is node v's empty forwarding queue in the shared slab.
func (b *ColorBFS) slabQueue(v int) []uint64 {
	return b.queueSlab[v*queueSlabCap : v*queueSlabCap : (v+1)*queueSlabCap]
}

// trim drops what the last invocation did not need — identifier tables
// and queues more than twice their sets' sizes — so a retained instance
// follows the last graph, not the union of every graph it served.
func (b *ColorBFS) trim() {
	b.asc.Trim()
	b.desc.Trim()
	if b.skip != nil {
		b.skip.Trim()
	}
	queues := b.queue[:cap(b.queue)]
	for v, q := range queues {
		if cap(q) > 2*max(len(q), queueSlabCap) {
			queues[v] = b.slabQueue(v)
		}
	}
}

// reset prepares a (possibly reused) instance for a fresh invocation on
// n ≤ capacity vertices. The identifier sets are emptied by a generation
// bump (O(1)); the remaining per-node arrays are re-sliced to n, keeping
// their capacity, and cleared in place (a run reads no cell past n).
func (b *ColorBFS) reset(n int, spec ColorBFSSpec) {
	b.spec = spec
	b.m = spec.L / 2
	b.tmax = max(b.m, spec.L-b.m)
	if n != b.n {
		b.n = n
		b.ascOver = b.ascOver[:n]
		b.descOver = b.descOver[:n]
		b.queue = b.queue[:n]
		b.queueIdx = b.queueIdx[:n]
	}
	clear(b.ascOver)
	clear(b.descOver)
	b.detections = b.detections[:0]
	for v := range b.queue {
		// Truncate only non-empty queues: reads are cheaper than
		// unconditionally dirtying 2n header words.
		if len(b.queue[v]) > 0 {
			b.queue[v] = b.queue[v][:0]
		}
	}
	clear(b.queueIdx)
	b.asc.Reset(n)
	b.desc.Reset(n)
	// The skip store exists only once an instance has run in merged mode
	// (every skip code path is gated on DetectSkip or a Skip detection).
	if spec.DetectSkip && b.skip == nil {
		b.skip = idset.New(n)
	} else if b.skip != nil {
		b.skip.Reset(n)
	}
	b.over = false
}

// retainedBytes is the instance's size as an Arena charges it: the
// identifier stores, the per-node arrays across their capacity, and the
// queue and detection buffers grown past the slab.
func (b *ColorBFS) retainedBytes() int64 {
	const perNode = 2 + 24 + 4 + queueSlabCap*8 // over flags, queue header, queueIdx, slab
	bytes := b.asc.Bytes() + b.desc.Bytes() + int64(cap(b.ascOver))*perNode
	if b.skip != nil {
		bytes += b.skip.Bytes()
	}
	for _, q := range b.queue[:cap(b.queue)] {
		if cap(q) > queueSlabCap {
			bytes += int64(cap(q)) * 8
		}
	}
	return bytes + int64(cap(b.detections))*24 + int64(cap(b.bucketColor))*5
}

// ColorBFSPool hands out reusable ColorBFS instances for a fixed vertex
// count, for the duration of one detection. Acquire/Release are safe for
// concurrent use (the trial scheduler runs many invocations in flight on
// one engine); a released instance must no longer be read — in
// particular its Detections and parent pointers — because the next
// Acquire recycles its buffers.
type ColorBFSPool struct {
	n     int
	arena *congest.Arena
	mu    sync.Mutex
	free  []*ColorBFS
}

// NewColorBFSPool returns a pool of invocations for graphs on n vertices.
// With an arena, instances come from the arena's retained ones when one
// has the capacity, and Close hands them back; a nil arena allocates
// them for this pool alone.
func NewColorBFSPool(arena *congest.Arena, n int) *ColorBFSPool {
	return &ColorBFSPool{n: n, arena: arena}
}

// Acquire returns a reset instance for the spec, reusing a released one
// when available.
func (p *ColorBFSPool) Acquire(spec ColorBFSSpec) (*ColorBFS, error) {
	if err := validateSpec(p.n, spec); err != nil {
		return nil, err
	}
	p.mu.Lock()
	var b *ColorBFS
	if k := len(p.free); k > 0 {
		b = p.free[k-1]
		p.free = p.free[:k-1]
	}
	p.mu.Unlock()
	if b == nil {
		if b = congest.Take[ColorBFS](p.arena, p.n, 0); b == nil {
			b = newColorBFS(p.n)
		}
	}
	b.reset(p.n, spec)
	return b, nil
}

// Close hands the released instances to the pool's arena (a nil arena
// drops them). Instances still acquired — a detection retained for
// witness notification — stay with their holder. The pool must not be
// used afterwards.
func (p *ColorBFSPool) Close() {
	if p.arena == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, b := range p.free {
		// Drop the references to this detection's arrays, so retention
		// keeps no per-call state alive.
		b.spec = ColorBFSSpec{}
		b.trim()
		congest.Keep(p.arena, b, cap(b.ascOver), 0, b.retainedBytes())
		p.free[i] = nil
	}
	p.free = nil
}

// Release returns an instance to the pool. Callers that retain a detecting
// instance (for witness notification) simply skip the Release.
func (p *ColorBFSPool) Release(b *ColorBFS) {
	if b == nil || b.n != p.n {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// Role predicates. Colors: 0 seeds; 1..m-1 ascending forwarders; m
// detector; m+1..L-1 descending forwarders; in skip mode m-1 also detects.

func (b *ColorBFS) isAscForwarder(c int8) bool { return c >= 1 && int(c) <= b.m-1 }
func (b *ColorBFS) isDescForwarder(c int8) bool {
	return int(c) >= b.m+1 && int(c) <= b.spec.L-1
}

// sendPhase returns the batch phase (1-based) in which a node of color c
// transmits, or 0 if it never transmits. Seeds transmit in phase 1;
// an ascending forwarder colored c transmits in phase c+1; a descending
// forwarder colored c transmits in phase L-c+1.
func (b *ColorBFS) sendPhase(c int8) int {
	switch {
	case c == 0:
		return 1
	case b.isAscForwarder(c):
		return int(c) + 1
	case b.isDescForwarder(c):
		return b.spec.L - int(c) + 1
	default:
		return 0
	}
}

// acceptAll runs accept over a whole inbox (one call per node per round
// instead of one per message on the batch schedule's hot path).
func (b *ColorBFS) acceptAll(v graph.NodeID, c int8, inbox []congest.Message) {
	for _, m := range inbox {
		b.accept(v, c, m)
	}
}

// accept processes an incoming identifier at node v according to the
// receiver-side rules and reports whether a detection occurred.
// Receiver-side filtering (rather than sender-side color knowledge) keeps
// every node's decisions local; it costs extra messages on wrongly-colored
// edges but never extra rounds, so round complexity is unaffected.
func (b *ColorBFS) accept(v graph.NodeID, c int8, m congest.Message) {
	if !b.spec.InH[v] {
		return
	}
	id := m.A()
	switch m.Kind() {
	case kindSeed:
		if int(c) == 1 {
			b.insertAsc(v, c, id, m.From())
		}
		if int(c) == b.spec.L-1 {
			b.insertDesc(v, c, id, m.From())
		}
	case kindFwd:
		sc := int(m.B()) & 0xff
		descDir := m.B()&dirDesc != 0
		if !descDir && int(c) == sc+1 && int(c) <= b.m {
			b.insertAsc(v, c, id, m.From())
		}
		if descDir && int(c) == sc-1 && int(c) >= b.m {
			b.insertDesc(v, c, id, m.From())
		}
		if descDir && b.spec.DetectSkip && sc == b.m+1 && int(c) == b.m-1 {
			b.insertSkip(v, id, m.From())
		}
	}
}

func (b *ColorBFS) insertAsc(v graph.NodeID, c int8, id uint64, from graph.NodeID) {
	if b.ascOver[v] {
		return
	}
	// The forwarding threshold τ applies to forwarders: a set that would
	// exceed τ is discarded entirely (Instruction 19 of Algorithm 1).
	// In skip mode the color-(m-1) detectors are also forwarders, so their
	// ascending set obeys the same rule. InsertCapped settles the
	// duplicate check, the bound and the insertion in one probe.
	capLen := int32(math.MaxInt32)
	if b.isAscForwarder(c) {
		capLen = b.thresholdAt(v)
	}
	inserted, capped := b.asc.InsertCapped(v, id, from, capLen)
	if capped {
		b.ascOver[v] = true
		b.over = true
		return
	}
	if !inserted {
		return // duplicate
	}
	if int(c) == b.m {
		if _, hit := b.desc.Get(v, id); hit {
			b.record(Detection{Node: v, Seed: id})
		}
	}
	if b.spec.DetectSkip && int(c) == b.m-1 {
		if _, hit := b.skip.Get(v, id); hit {
			b.record(Detection{Node: v, Seed: id, Skip: true})
		}
	}
}

func (b *ColorBFS) insertDesc(v graph.NodeID, c int8, id uint64, from graph.NodeID) {
	if b.descOver[v] {
		return
	}
	capLen := int32(math.MaxInt32)
	if b.isDescForwarder(c) {
		capLen = b.thresholdAt(v)
	}
	inserted, capped := b.desc.InsertCapped(v, id, from, capLen)
	if capped {
		b.descOver[v] = true
		b.over = true
		return
	}
	if !inserted {
		return // duplicate
	}
	if int(c) == b.m {
		if _, hit := b.asc.Get(v, id); hit {
			b.record(Detection{Node: v, Seed: id})
		}
	}
}

func (b *ColorBFS) insertSkip(v graph.NodeID, id uint64, from graph.NodeID) {
	if !b.skip.Insert(v, id, from) {
		return
	}
	if !b.ascOver[v] {
		if _, hit := b.asc.Get(v, id); hit {
			b.record(Detection{Node: v, Seed: id, Skip: true})
		}
	}
}

// record appends a detection to the run's buffer.
func (b *ColorBFS) record(d Detection) {
	b.detections = append(b.detections, d)
}

// Detections returns the identifier collisions found by the run.
func (b *ColorBFS) Detections() []Detection { return b.detections }

// MaxCongestion returns the largest identifier set accumulated at any
// single node on either side — the congestion quantity that the paper's
// threshold τ bounds for forwarders.
func (b *ColorBFS) MaxCongestion() int {
	return max(b.asc.MaxLen(), b.desc.MaxLen())
}

// thresholdAt returns node v's forwarding threshold.
func (b *ColorBFS) thresholdAt(v graph.NodeID) int32 {
	if b.spec.ThresholdAt != nil {
		return b.spec.ThresholdAt[v]
	}
	return idset.CapLen(b.spec.Threshold)
}

// MaxCongestionRange returns the congestion watermark restricted to nodes
// in [lo, hi) — the per-component split of MaxCongestion for fused
// sessions (identifier sets only grow within an invocation, so the final
// per-node lengths are the watermark).
func (b *ColorBFS) MaxCongestionRange(lo, hi graph.NodeID) int {
	return max(b.asc.MaxLenRange(lo, hi), b.desc.MaxLenRange(lo, hi))
}

// Overflowed reports whether any forwarder discarded its set.
func (b *ColorBFS) Overflowed() bool { return b.over }

// OverflowedRange reports whether any forwarder in [lo, hi) discarded its
// set (the per-component split of Overflowed; over every node it is
// Overflowed, O(1)).
func (b *ColorBFS) OverflowedRange(lo, hi graph.NodeID) bool {
	if lo == 0 && int(hi) == b.n {
		return b.Overflowed()
	}
	for v := lo; v < hi; v++ {
		if b.ascOver[v] || b.descOver[v] {
			return true
		}
	}
	return false
}

// Run executes the invocation on the engine and returns the accumulated
// report. Batch mode runs the paper's phase-synchronous schedule as one
// engine session per phase (each phase ends at quiescence, i.e. after
// max_v |queue(v)| rounds — the early exit changes no message's timing
// relative to a fixed τ-round phase, it only skips the idle tail).
// Pipelined mode runs a single session in which identifiers are forwarded
// as they arrive.
func (b *ColorBFS) Run(e *congest.Engine) (congest.Report, error) {
	phases := uint64(1)
	if !b.spec.Pipelined {
		phases = uint64(b.tmax)
	}
	return b.RunSessions(e, e.ReserveSessions(phases))
}

// RunSessions is Run with caller-chosen engine session tags (base,
// base+1, … for the batch phases). Trial schedulers that execute many
// invocations concurrently on one engine pass explicit tags so every
// invocation's randomness — and therefore its transcript — is independent
// of scheduling.
func (b *ColorBFS) RunSessions(e *congest.Engine, base uint64) (congest.Report, error) {
	var rep congest.Report
	var err error
	if b.spec.Pipelined {
		rep, err = b.runPipelined(e, base)
	} else {
		rep, err = b.runBatch(e, base)
	}
	if err != nil {
		return congest.Report{}, err
	}
	// Canonicalize the detections' order: sort by node, then seed, then
	// Skip, a total order over Detection's fields, so Detections()[0] —
	// and hence the extracted witness — does not depend on the order the
	// batch phases found them in.
	if len(b.detections) > 1 {
		slices.SortFunc(b.detections, func(di, dj Detection) int {
			if di.Node != dj.Node {
				return int(di.Node) - int(dj.Node)
			}
			if di.Seed != dj.Seed {
				if di.Seed < dj.Seed {
					return -1
				}
				return 1
			}
			switch {
			case di.Skip == dj.Skip:
				return 0
			case dj.Skip:
				return -1
			default:
				return 1
			}
		})
	}
	return rep, nil
}

func (b *ColorBFS) runBatch(e *congest.Engine, base uint64) (congest.Report, error) {
	var total congest.Report
	ph := &b.batch
	ph.bfs = b
	for phase := 1; phase <= b.tmax; phase++ {
		ph.phase = phase
		rep, err := e.RunSession(ph, base+uint64(phase-1))
		if err != nil {
			return congest.Report{}, fmt.Errorf("core: color-BFS phase %d: %w", phase, err)
		}
		total.Accumulate(&rep)
	}
	return total, nil
}

// batchPhase is the engine handler for a single batch phase: the phase's
// senders transmit their identifier sets one per round; receivers
// accumulate. The forwarding queues live on the ColorBFS and are reused
// across phases (a node transmits in exactly one phase, so queues drained
// by earlier phases stay inert).
type batchPhase struct {
	bfs   *ColorBFS
	phase int
}

var _ congest.Handler = (*batchPhase)(nil)

func (p *batchPhase) Init(rt *congest.Session) {
	b := p.bfs
	if p.phase == 1 {
		b.ensureBuckets()
		for _, v := range b.bucketSeeds {
			if b.spec.InH[v] {
				p.initSender(rt, v)
			}
		}
		return
	}
	for _, v := range b.bucketPhase[p.phase-2] {
		if b.spec.InH[v] {
			p.initSender(rt, v)
		}
	}
}

// ensureBuckets (re)builds the send-phase buckets for the current
// (L, Color) pair, skipping the walk when the cached buckets already
// reflect it, which a comparison of the coloring with the snapshot
// settles (a trial's coloring buffer is refilled for the next trial, so
// its identity says nothing). Vertices are bucketed in ascending order,
// so the per-phase iteration order — and with it every seed's
// randomness draw — matches the full-graph scan it replaces.
func (b *ColorBFS) ensureBuckets() {
	if b.bucketL == b.spec.L && len(b.bucketColor) > 0 && slices.Equal(b.bucketColor, b.spec.Color) {
		return
	}
	b.bucketL = b.spec.L
	b.bucketColor = append(b.bucketColor[:0], b.spec.Color...)
	b.bucketSeeds = b.bucketSeeds[:0]
	for len(b.bucketPhase) < b.tmax-1 {
		b.bucketPhase = append(b.bucketPhase, nil)
	}
	b.bucketPhase = b.bucketPhase[:b.tmax-1]
	for i := range b.bucketPhase {
		b.bucketPhase[i] = b.bucketPhase[i][:0]
	}
	for u, c := range b.bucketColor {
		v := graph.NodeID(u)
		switch ph := b.sendPhase(c); {
		case ph == 1:
			b.bucketSeeds = append(b.bucketSeeds, v)
		case ph > 1:
			b.bucketPhase[ph-2] = append(b.bucketPhase[ph-2], v)
		}
	}
}

// initSender loads v's forwarding queue for its transmission phase and
// wakes it, unless it has nothing to transmit (inactive seed, empty or
// overflowed set).
func (p *batchPhase) initSender(rt *congest.Session, v graph.NodeID) {
	b := p.bfs
	switch c := b.spec.Color[v]; {
	case c == 0:
		if !b.spec.InX[v] {
			return
		}
		// Algorithm 2's randomized activation (Instruction 1).
		if b.spec.SeedProb < 1 && rt.Rand(v).Float64() >= b.spec.SeedProb {
			return
		}
		b.queue[v] = append(b.queue[v][:0], uint64(v))
	case b.isAscForwarder(c):
		if b.ascOver[v] || b.asc.Len(v) == 0 {
			return
		}
		b.fillQueueSorted(b.asc, v)
	default: // descending forwarder
		if b.descOver[v] || b.desc.Len(v) == 0 {
			return
		}
		b.fillQueueSorted(b.desc, v)
	}
	b.queueIdx[v] = 0
	rt.WakeAt(v, 0)
}

func (p *batchPhase) HandleRound(rt *congest.Session, u graph.NodeID, r int, inbox []congest.Message) {
	b := p.bfs
	if !b.spec.InH[u] {
		// Non-H nodes neither accept nor transmit (their queues are never
		// loaded); skipping them avoids a no-op walk of flood inboxes.
		return
	}
	c := b.spec.Color[u]
	if len(inbox) > 0 {
		b.acceptAll(u, c, inbox)
	}
	// Checking the queue before its index spares receive-only nodes (the
	// common case) the queueIdx load.
	if q := b.queue[u]; len(q) > 0 {
		if idx := int(b.queueIdx[u]); idx < len(q) {
			id := q[idx]
			b.queueIdx[u]++
			kind, payload := kindFwd, uint64(c)
			if c == 0 {
				kind, payload = kindSeed, 0
			} else if b.isDescForwarder(c) {
				payload |= dirDesc
			}
			rt.Broadcast(u, kind, id, payload)
			if int(b.queueIdx[u]) < len(q) {
				rt.WakeAt(u, r+1)
			}
		}
	}
}

// fillQueueSorted loads node v's forwarding queue with its identifier set
// in ascending order, reusing the queue's backing array.
func (b *ColorBFS) fillQueueSorted(set *idset.Store, v graph.NodeID) {
	ids := set.AppendIDs(v, b.queue[v][:0])
	slices.Sort(ids)
	b.queue[v] = ids
}

// runPipelined executes the pipelined schedule: one engine session,
// identifiers forwarded as they arrive, with the threshold acting as a
// cutoff (a forwarder that exceeds τ stops forwarding; identifiers it
// already relayed still witness well-colored paths, so one-sided
// correctness is preserved — this is ablation A1).
func (b *ColorBFS) runPipelined(e *congest.Engine, base uint64) (congest.Report, error) {
	b.pipe.bfs = b
	rep, err := e.RunSession(&b.pipe, base)
	if err != nil {
		return congest.Report{}, fmt.Errorf("core: pipelined color-BFS: %w", err)
	}
	return rep, nil
}

type pipelinedRun struct {
	bfs *ColorBFS
}

var _ congest.Handler = (*pipelinedRun)(nil)

func (p *pipelinedRun) Init(rt *congest.Session) {
	b := p.bfs
	b.ensureBuckets()
	for _, v := range b.bucketSeeds {
		if !b.spec.InH[v] || !b.spec.InX[v] {
			continue
		}
		if b.spec.SeedProb < 1 && rt.Rand(v).Float64() >= b.spec.SeedProb {
			continue
		}
		b.queue[v] = append(b.queue[v][:0], uint64(v))
		rt.WakeAt(v, 0)
	}
}

func (p *pipelinedRun) HandleRound(rt *congest.Session, u graph.NodeID, r int, inbox []congest.Message) {
	b := p.bfs
	if !b.spec.InH[u] {
		// As in the batch schedule: non-H nodes are pure bystanders.
		return
	}
	c := b.spec.Color[u]
	forwarder := b.isAscForwarder(c) || b.isDescForwarder(c)
	for _, m := range inbox {
		var before int
		if forwarder {
			before = p.setSize(u, c)
		}
		b.accept(u, c, m)
		if forwarder && p.setSize(u, c) > before && !p.overflowed(u, c) {
			b.queue[u] = append(b.queue[u], m.A())
		}
	}
	if p.overflowed(u, c) {
		b.queue[u] = b.queue[u][:0]
		b.queueIdx[u] = 0
		return
	}
	q := b.queue[u]
	if idx := int(b.queueIdx[u]); idx < len(q) {
		id := q[idx]
		b.queueIdx[u]++
		kind, payload := kindFwd, uint64(c)
		if c == 0 {
			kind, payload = kindSeed, 0
		} else if b.isDescForwarder(c) {
			payload |= dirDesc
		}
		rt.Broadcast(u, kind, id, payload)
		if int(b.queueIdx[u]) < len(q) {
			rt.WakeAt(u, r+1)
		}
	}
}

func (p *pipelinedRun) setSize(u graph.NodeID, c int8) int {
	if p.bfs.isAscForwarder(c) {
		return p.bfs.asc.Len(u)
	}
	return p.bfs.desc.Len(u)
}

func (p *pipelinedRun) overflowed(u graph.NodeID, c int8) bool {
	if p.bfs.isAscForwarder(c) {
		return p.bfs.ascOver[u]
	}
	return p.bfs.descOver[u]
}
