package core

// This file retains the original map-per-node implementation of color-BFS
// (the representation PR 2 replaced with pooled flat sets, see
// internal/idset) as an executable reference. The equivalence tests below
// drive the production ColorBFS — acquired through a shared ColorBFSPool,
// so instance reuse is stressed too — and the reference side by side on
// randomized instances, asserting identical detections, congestion,
// overflow flags, transcripts and witnesses.

import (
	"math/rand/v2"
	"sort"
	"sync"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

type refColorBFS struct {
	spec ColorBFSSpec
	m    int
	tmax int

	asc, desc, skip []map[uint64]graph.NodeID
	ascOver         []bool
	descOver        []bool

	mu         sync.Mutex
	detections []Detection

	queue    [][]uint64
	queueIdx []int
}

func newRefColorBFS(n int, spec ColorBFSSpec) *refColorBFS {
	m := spec.L / 2
	b := &refColorBFS{
		spec:     spec,
		m:        m,
		tmax:     max(m, spec.L-m),
		asc:      make([]map[uint64]graph.NodeID, n),
		desc:     make([]map[uint64]graph.NodeID, n),
		ascOver:  make([]bool, n),
		descOver: make([]bool, n),
	}
	if spec.DetectSkip {
		b.skip = make([]map[uint64]graph.NodeID, n)
	}
	return b
}

func (b *refColorBFS) isAscForwarder(c int8) bool { return c >= 1 && int(c) <= b.m-1 }
func (b *refColorBFS) isDescForwarder(c int8) bool {
	return int(c) >= b.m+1 && int(c) <= b.spec.L-1
}

func (b *refColorBFS) sendPhase(c int8) int {
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

func (b *refColorBFS) accept(v graph.NodeID, c int8, m congest.Message) {
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

func (b *refColorBFS) insertAsc(v graph.NodeID, c int8, id uint64, from graph.NodeID) {
	if b.ascOver[v] {
		return
	}
	set := b.asc[v]
	if set == nil {
		set = make(map[uint64]graph.NodeID, 4)
		b.asc[v] = set
	}
	if _, dup := set[id]; dup {
		return
	}
	if b.isAscForwarder(c) && len(set) >= b.spec.Threshold {
		b.ascOver[v] = true
		return
	}
	set[id] = from
	if int(c) == b.m {
		if _, hit := b.desc[v][id]; hit {
			b.record(Detection{Node: v, Seed: id})
		}
	}
	if b.spec.DetectSkip && int(c) == b.m-1 {
		if _, hit := b.skip[v][id]; hit {
			b.record(Detection{Node: v, Seed: id, Skip: true})
		}
	}
}

func (b *refColorBFS) insertDesc(v graph.NodeID, c int8, id uint64, from graph.NodeID) {
	if b.descOver[v] {
		return
	}
	set := b.desc[v]
	if set == nil {
		set = make(map[uint64]graph.NodeID, 4)
		b.desc[v] = set
	}
	if _, dup := set[id]; dup {
		return
	}
	if b.isDescForwarder(c) && len(set) >= b.spec.Threshold {
		b.descOver[v] = true
		return
	}
	set[id] = from
	if int(c) == b.m {
		if _, hit := b.asc[v][id]; hit {
			b.record(Detection{Node: v, Seed: id})
		}
	}
}

func (b *refColorBFS) insertSkip(v graph.NodeID, id uint64, from graph.NodeID) {
	set := b.skip[v]
	if set == nil {
		set = make(map[uint64]graph.NodeID, 4)
		b.skip[v] = set
	}
	if _, dup := set[id]; dup {
		return
	}
	set[id] = from
	if !b.ascOver[v] {
		if _, hit := b.asc[v][id]; hit {
			b.record(Detection{Node: v, Seed: id, Skip: true})
		}
	}
}

func (b *refColorBFS) record(d Detection) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.detections = append(b.detections, d)
}

func (b *refColorBFS) maxCongestion() int {
	best := 0
	for v := range b.asc {
		if len(b.asc[v]) > best {
			best = len(b.asc[v])
		}
		if len(b.desc[v]) > best {
			best = len(b.desc[v])
		}
	}
	return best
}

func (b *refColorBFS) overflowed() bool {
	for v := range b.ascOver {
		if b.ascOver[v] || b.descOver[v] {
			return true
		}
	}
	return false
}

func (b *refColorBFS) run(e *congest.Engine) (congest.Report, error) {
	var rep congest.Report
	var err error
	if b.spec.Pipelined {
		n := e.Network().NumNodes()
		b.queue = make([][]uint64, n)
		b.queueIdx = make([]int, n)
		rep, err = e.RunSession(&refPipelinedRun{bfs: b}, e.ReserveSessions(1))
	} else {
		base := e.ReserveSessions(uint64(b.tmax))
		var total congest.Report
		for phase := 1; phase <= b.tmax; phase++ {
			var prep congest.Report
			prep, err = e.RunSession(&refBatchPhase{bfs: b, phase: phase}, base+uint64(phase-1))
			if err != nil {
				break
			}
			total.Accumulate(&prep)
		}
		rep = total
	}
	if err != nil {
		return congest.Report{}, err
	}
	sort.Slice(b.detections, func(i, j int) bool {
		di, dj := b.detections[i], b.detections[j]
		if di.Node != dj.Node {
			return di.Node < dj.Node
		}
		if di.Seed != dj.Seed {
			return di.Seed < dj.Seed
		}
		return !di.Skip && dj.Skip
	})
	return rep, nil
}

// witness mirrors ColorBFS.Witness over the reference maps.
func (b *refColorBFS) witness(d Detection) ([]graph.NodeID, error) {
	seed := graph.NodeID(d.Seed)
	wantLen := b.spec.L
	ascSteps := b.m
	if d.Skip {
		wantLen = b.spec.L - 1
		ascSteps = b.m - 1
	}
	walk := func(maps []map[uint64]graph.NodeID, from graph.NodeID, steps int) ([]graph.NodeID, error) {
		out := make([]graph.NodeID, 0, steps)
		cur := from
		for i := 0; i < steps; i++ {
			next, ok := maps[cur][d.Seed]
			if !ok {
				return nil, errMissing
			}
			out = append(out, next)
			cur = next
		}
		if cur != seed {
			return nil, errMissing
		}
		return out, nil
	}
	ascPath, err := walk(b.asc, d.Node, ascSteps)
	if err != nil {
		return nil, err
	}
	var descPath []graph.NodeID
	if d.Skip {
		relay, ok := b.skip[d.Node][d.Seed]
		if !ok {
			return nil, errMissing
		}
		rest, err := walk(b.desc, relay, b.spec.L-b.m-1)
		if err != nil {
			return nil, err
		}
		descPath = append([]graph.NodeID{relay}, rest...)
	} else {
		descPath, err = walk(b.desc, d.Node, b.spec.L-b.m)
		if err != nil {
			return nil, err
		}
	}
	cycle := make([]graph.NodeID, 0, wantLen)
	cycle = append(cycle, seed)
	for i := len(ascPath) - 2; i >= 0; i-- {
		cycle = append(cycle, ascPath[i])
	}
	cycle = append(cycle, d.Node)
	for i := 0; i < len(descPath)-1; i++ {
		cycle = append(cycle, descPath[i])
	}
	if len(cycle) != wantLen {
		return nil, errMissing
	}
	return cycle, nil
}

type refWalkError string

func (e refWalkError) Error() string { return string(e) }

const errMissing = refWalkError("reference witness walk failed")

type refBatchPhase struct {
	bfs   *refColorBFS
	phase int

	queue    [][]uint64
	queueIdx []int
}

func (p *refBatchPhase) Init(rt *congest.Session) {
	b := p.bfs
	n := rt.N()
	p.queue = make([][]uint64, n)
	p.queueIdx = make([]int, n)
	for u := 0; u < n; u++ {
		v := graph.NodeID(u)
		if !b.spec.InH[v] {
			continue
		}
		c := b.spec.Color[v]
		if b.sendPhase(c) != p.phase {
			continue
		}
		var ids []uint64
		switch {
		case c == 0:
			if !b.spec.InX[v] {
				continue
			}
			if b.spec.SeedProb < 1 && rt.Rand(v).Float64() >= b.spec.SeedProb {
				continue
			}
			ids = []uint64{uint64(v)}
		case b.isAscForwarder(c):
			if b.ascOver[v] || len(b.asc[v]) == 0 {
				continue
			}
			ids = refSortedIDs(b.asc[v])
		default:
			if b.descOver[v] || len(b.desc[v]) == 0 {
				continue
			}
			ids = refSortedIDs(b.desc[v])
		}
		p.queue[v] = ids
		rt.WakeAt(v, 0)
	}
}

func (p *refBatchPhase) HandleRound(rt *congest.Session, u graph.NodeID, r int, inbox []congest.Message) {
	b := p.bfs
	c := b.spec.Color[u]
	for _, m := range inbox {
		b.accept(u, c, m)
	}
	q := p.queue[u]
	if idx := p.queueIdx[u]; idx < len(q) {
		id := q[idx]
		p.queueIdx[u]++
		kind, payload := kindFwd, uint64(c)
		if c == 0 {
			kind, payload = kindSeed, 0
		} else if b.isDescForwarder(c) {
			payload |= dirDesc
		}
		for _, w := range rt.Neighbors(u) {
			rt.Send(u, w, kind, id, payload)
		}
		if p.queueIdx[u] < len(q) {
			rt.WakeAt(u, r+1)
		}
	}
}

func refSortedIDs(set map[uint64]graph.NodeID) []uint64 {
	ids := make([]uint64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

type refPipelinedRun struct {
	bfs *refColorBFS
}

func (p *refPipelinedRun) Init(rt *congest.Session) {
	b := p.bfs
	for u := 0; u < rt.N(); u++ {
		v := graph.NodeID(u)
		if !b.spec.InH[v] || b.spec.Color[v] != 0 || !b.spec.InX[v] {
			continue
		}
		if b.spec.SeedProb < 1 && rt.Rand(v).Float64() >= b.spec.SeedProb {
			continue
		}
		b.queue[v] = []uint64{uint64(v)}
		rt.WakeAt(v, 0)
	}
}

func (p *refPipelinedRun) HandleRound(rt *congest.Session, u graph.NodeID, r int, inbox []congest.Message) {
	b := p.bfs
	c := b.spec.Color[u]
	forwarder := b.isAscForwarder(c) || b.isDescForwarder(c)
	for _, m := range inbox {
		var before int
		if forwarder {
			before = p.setSize(u, c)
		}
		b.accept(u, c, m)
		if forwarder && p.setSize(u, c) > before && !p.overflowedAt(u, c) {
			b.queue[u] = append(b.queue[u], m.A())
		}
	}
	if p.overflowedAt(u, c) {
		b.queue[u] = nil
		return
	}
	q := b.queue[u]
	if idx := b.queueIdx[u]; idx < len(q) {
		id := q[idx]
		b.queueIdx[u]++
		kind, payload := kindFwd, uint64(c)
		if c == 0 {
			kind, payload = kindSeed, 0
		} else if b.isDescForwarder(c) {
			payload |= dirDesc
		}
		for _, w := range rt.Neighbors(u) {
			rt.Send(u, w, kind, id, payload)
		}
		if b.queueIdx[u] < len(q) {
			rt.WakeAt(u, r+1)
		}
	}
}

func (p *refPipelinedRun) setSize(u graph.NodeID, c int8) int {
	if p.bfs.isAscForwarder(c) {
		return len(p.bfs.asc[u])
	}
	return len(p.bfs.desc[u])
}

func (p *refPipelinedRun) overflowedAt(u graph.NodeID, c int8) bool {
	if p.bfs.isAscForwarder(c) {
		return p.bfs.ascOver[u]
	}
	return p.bfs.descOver[u]
}

// ---------------------------------------------------------------------------
// Equivalence tests.

// TestColorBFSMatchesMapReference drives the flat-set ColorBFS (through a
// shared pool, so buffer reuse across wildly different specs is exercised)
// and the retained map-based reference on randomized instances, comparing
// detections, congestion, overflow, transcript cost and every witness.
func TestColorBFSMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xe9, 0x1))
	var pool *ColorBFSPool
	for trial := 0; trial < 120; trial++ {
		n := 20 + rng.IntN(80)
		g := graph.Gnm(n, n+rng.IntN(2*n), graph.NewRand(uint64(trial)))
		if rng.IntN(2) == 0 {
			var err error
			g, _, err = graph.PlantCycle(g, 4+2*rng.IntN(2), graph.NewRand(uint64(trial)*7+1))
			if err != nil {
				t.Fatal(err)
			}
		}
		n = g.NumNodes()
		L := []int{4, 5, 6, 8}[rng.IntN(4)]
		colors := make([]int8, n)
		for v := range colors {
			colors[v] = int8(rng.IntN(L))
		}
		inH := make([]bool, n)
		inX := make([]bool, n)
		for v := 0; v < n; v++ {
			inH[v] = rng.IntN(10) > 0 // mostly in H
			inX[v] = rng.IntN(4) > 0
		}
		threshold := 1 + rng.IntN(6)
		if rng.IntN(3) == 0 {
			threshold = n
		}
		seedProb := 1.0
		if rng.IntN(2) == 0 {
			seedProb = 0.6
		}
		spec := ColorBFSSpec{
			L:          L,
			Color:      colors,
			InH:        inH,
			InX:        inX,
			Threshold:  threshold,
			SeedProb:   seedProb,
			DetectSkip: L%2 == 0 && rng.IntN(2) == 0,
			Pipelined:  rng.IntN(2) == 0,
		}

		if pool == nil || pool.n != n {
			pool = NewColorBFSPool(nil, n)
		}
		got, err := pool.Acquire(spec)
		if err != nil {
			t.Fatalf("trial %d: Acquire: %v", trial, err)
		}
		netSeed := uint64(trial) * 31
		gotRep, err := got.Run(congest.NewEngine(congest.NewNetwork(g, netSeed)))
		if err != nil {
			t.Fatalf("trial %d: flat run: %v", trial, err)
		}

		want := newRefColorBFS(n, spec)
		wantRep, err := want.run(congest.NewEngine(congest.NewNetwork(g, netSeed)))
		if err != nil {
			t.Fatalf("trial %d: reference run: %v", trial, err)
		}

		if gotRep.Rounds != wantRep.Rounds || gotRep.Messages != wantRep.Messages || gotRep.Bits != wantRep.Bits {
			t.Fatalf("trial %d (%+v): transcript cost (%d,%d,%d) != reference (%d,%d,%d)",
				trial, specSummary(spec), gotRep.Rounds, gotRep.Messages, gotRep.Bits,
				wantRep.Rounds, wantRep.Messages, wantRep.Bits)
		}
		if got.MaxCongestion() != want.maxCongestion() {
			t.Fatalf("trial %d: MaxCongestion %d != %d", trial, got.MaxCongestion(), want.maxCongestion())
		}
		if got.Overflowed() != want.overflowed() {
			t.Fatalf("trial %d: Overflowed %v != %v", trial, got.Overflowed(), want.overflowed())
		}
		gd, wd := got.Detections(), want.detections
		if len(gd) != len(wd) {
			t.Fatalf("trial %d: %d detections != reference %d", trial, len(gd), len(wd))
		}
		for i := range gd {
			if gd[i] != wd[i] {
				t.Fatalf("trial %d: detection[%d] = %+v != reference %+v", trial, i, gd[i], wd[i])
			}
			gw, gerr := got.Witness(gd[i])
			ww, werr := want.witness(wd[i])
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("trial %d: witness errors diverge: %v vs %v", trial, gerr, werr)
			}
			if gerr == nil && !equalNodes(gw, ww) {
				t.Fatalf("trial %d: witness %v != reference %v", trial, gw, ww)
			}
		}
		pool.Release(got)
	}
}

func specSummary(s ColorBFSSpec) ColorBFSSpec {
	s.Color, s.InH, s.InX = nil, nil, nil
	return s
}

func equalNodes(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
