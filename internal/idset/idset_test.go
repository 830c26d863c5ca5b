package idset

import (
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"testing"
)

func TestInsertGetBasics(t *testing.T) {
	s := New(4)
	if got := s.Len(0); got != 0 {
		t.Fatalf("empty Len = %d", got)
	}
	if !s.Insert(0, 42, 7) {
		t.Fatal("first insert reported duplicate")
	}
	if s.Insert(0, 42, 9) {
		t.Fatal("duplicate insert reported inserted")
	}
	if v, ok := s.Get(0, 42); !ok || v != 7 {
		t.Fatalf("Get = (%d,%v), want (7,true): insert must be first-writer-wins", v, ok)
	}
	if _, ok := s.Get(1, 42); ok {
		t.Fatal("id leaked into another node's set")
	}
	if _, ok := s.Get(0, 43); ok {
		t.Fatal("Get hit for absent id")
	}
	if s.Len(0) != 1 || s.Len(1) != 0 {
		t.Fatalf("lens = %d,%d", s.Len(0), s.Len(1))
	}
}

func TestPutOverwrites(t *testing.T) {
	s := New(1)
	if _, existed := s.Put(0, 5, 1); existed {
		t.Fatal("Put on empty set reported existing")
	}
	prev, existed := s.Put(0, 5, 2)
	if !existed || prev != 1 {
		t.Fatalf("Put = (%d,%v), want (1,true)", prev, existed)
	}
	if v, _ := s.Get(0, 5); v != 2 {
		t.Fatalf("value after Put = %d, want 2", v)
	}
	if s.Len(0) != 1 {
		t.Fatalf("Len = %d after overwrite", s.Len(0))
	}
}

func TestResetIsolatesGenerations(t *testing.T) {
	s := New(3)
	for id := uint64(0); id < 100; id++ {
		s.Insert(1, id, int32(id))
	}
	s.Reset(3)
	if s.Len(1) != 0 || s.MaxLen() != 0 {
		t.Fatalf("Len=%d MaxLen=%d after Reset", s.Len(1), s.MaxLen())
	}
	if _, ok := s.Get(1, 4); ok {
		t.Fatal("stale entry visible after Reset")
	}
	if ids := s.AppendIDs(1, nil); len(ids) != 0 {
		t.Fatalf("AppendIDs returned %d stale ids", len(ids))
	}
	// New-generation inserts must not resurrect stale slots.
	s.Insert(1, 4, 99)
	if v, ok := s.Get(1, 4); !ok || v != 99 {
		t.Fatalf("post-reset Get = (%d,%v)", v, ok)
	}
	if s.Len(1) != 1 {
		t.Fatalf("post-reset Len = %d", s.Len(1))
	}
}

func TestResetResizes(t *testing.T) {
	s := New(2)
	s.Insert(1, 9, 9)
	s.Reset(5)
	if s.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d", s.NumNodes())
	}
	s.Insert(4, 1, 1)
	if s.Len(4) != 1 {
		t.Fatal("insert after resize failed")
	}
}

// mapOp is one operation of a randomized cross-check: an insert (capped
// when the check runs under a τ), a put or a get.
type mapOp struct {
	kind int // 0 insert, 1 put, 2 get
	v    NodeID
	id   uint64
	val  int32
}

// randomOps draws count operations on n sets of identifiers below 500
// and values below 1000, mixed with the domain's edges: id 0, the largest
// id (idLimit−1), value 0 and the largest value (valLimit−1). Without
// puts, every write is an insert.
func randomOps(rng *rand.Rand, n, count int, puts bool) []mapOp {
	ops := make([]mapOp, count)
	for i := range ops {
		ops[i] = mapOp{kind: rng.IntN(3), v: NodeID(rng.IntN(n)), id: uint64(rng.IntN(500)), val: int32(rng.IntN(1000))}
		switch rng.IntN(40) {
		case 0:
			ops[i].id, ops[i].val = 0, 0
		case 1:
			ops[i].id = idLimit - 1
		case 2:
			ops[i].val = valLimit - 1
		}
		if ops[i].kind == 1 && !puts {
			ops[i].kind = 0
		}
	}
	return ops
}

// checkEmpty fails unless every set of s reads as empty to every reader,
// for the identifiers an earlier generation's ops wrote: a table that
// generation dirtied must not show through before the next write.
func checkEmpty(t *testing.T, s *Store, prev []mapOp) {
	t.Helper()
	for v := range s.NumNodes() {
		if s.Len(NodeID(v)) != 0 || len(s.AppendIDs(NodeID(v), nil)) != 0 {
			t.Fatalf("node %d: Len %d, AppendIDs %v after a new generation began", v, s.Len(NodeID(v)), s.AppendIDs(NodeID(v), nil))
		}
	}
	for _, op := range prev {
		if _, ok := s.Get(op.v, op.id); ok {
			t.Fatalf("node %d: id %d of an earlier generation is visible", op.v, op.id)
		}
	}
	if s.MaxLen() != 0 {
		t.Fatalf("MaxLen = %d after a new generation began", s.MaxLen())
	}
}

// checkAgainstMap applies ops to s (whose sets must be empty) and to a
// map model, failing on the first disagreement and then comparing every
// set's length and identifiers and the watermark. A positive tau makes
// every insert InsertCapped at tau. It returns the sets' final sizes.
func checkAgainstMap(t *testing.T, s *Store, ops []mapOp, tau int32) []int32 {
	t.Helper()
	n := s.NumNodes()
	ref := make([]map[uint64]int32, n)
	for v := range ref {
		ref[v] = make(map[uint64]int32)
	}
	for i, op := range ops {
		v, id, val := op.v, op.id, op.val
		switch op.kind {
		case 0:
			_, dup := ref[v][id]
			if tau > 0 {
				inserted, capped := s.InsertCapped(v, id, val, tau)
				full := !dup && len(ref[v]) >= int(tau)
				if inserted != (!dup && !full) || capped != full {
					t.Fatalf("op %d: InsertCapped = (%v,%v), map dup=%v full=%v", i, inserted, capped, dup, full)
				}
				if inserted {
					ref[v][id] = val
				}
				break
			}
			inserted := s.Insert(v, id, val)
			if dup == inserted {
				t.Fatalf("op %d: Insert inserted=%v, map dup=%v", i, inserted, dup)
			}
			if inserted {
				ref[v][id] = val
			}
		case 1:
			prev, existed := s.Put(v, id, val)
			want, wantExisted := ref[v][id]
			if existed != wantExisted || (existed && prev != want) {
				t.Fatalf("op %d: Put = (%d,%v), want (%d,%v)", i, prev, existed, want, wantExisted)
			}
			ref[v][id] = val
		default:
			got, ok := s.Get(v, id)
			want, wantOK := ref[v][id]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("op %d: Get = (%d,%v), want (%d,%v)", i, got, ok, want, wantOK)
			}
		}
	}
	sizes := make([]int32, n)
	maxLen := 0
	for v := range n {
		if s.Len(NodeID(v)) != len(ref[v]) {
			t.Fatalf("Len(%d) = %d, want %d", v, s.Len(NodeID(v)), len(ref[v]))
		}
		sizes[v] = int32(len(ref[v]))
		maxLen = max(maxLen, len(ref[v]))
		ids := s.AppendIDs(NodeID(v), nil)
		slices.Sort(ids)
		var want []uint64
		for id := range ref[v] {
			want = append(want, id)
		}
		slices.Sort(want)
		if !slices.Equal(ids, want) {
			t.Fatalf("AppendIDs(%d) mismatch", v)
		}
	}
	if s.MaxLen() != maxLen {
		t.Fatalf("MaxLen = %d, want %d", s.MaxLen(), maxLen)
	}
	return sizes
}

// Randomized cross-check against Go maps, including growth well past the
// initial table size, the id/value domain's edges and interleaved
// generations, on the minimum-size layout and on sized layouts: hints
// equal to the sets' final sizes, hints a quarter of them (every set
// outgrows its slab region), and hints capped at τ+1 under inserts
// capped at τ. Later generations re-use each layout, as a retained store
// does, beginning with a Reset or a Trim; every set must read as empty
// before the new generation's first write clears its table.
func TestRandomizedAgainstMap(t *testing.T) {
	const n, tau = 16, 40
	rng := rand.New(rand.NewPCG(1, 2))
	gens := make([][]mapOp, 5)
	for g := range gens {
		gens[g] = randomOps(rng, n, 20000, true)
	}
	sizes := checkAgainstMap(t, New(n), gens[0], 0)
	capped := randomOps(rng, n, 20000, false)
	cappedSizes := checkAgainstMap(t, New(n), capped, tau)
	hinted := func(sizes []int32, f func(int32) int32) []int32 {
		hints := make([]int32, n)
		for v, sz := range sizes {
			hints[v] = f(sz)
		}
		return hints
	}
	for _, c := range []struct {
		name  string
		s     *Store
		ops   []mapOp
		tau   int32
		grows bool
	}{
		{"minimum", New(n), gens[0], 0, true},
		{"exact", NewSized(sizes), gens[0], 0, false},
		{"low", NewSized(hinted(sizes, func(sz int32) int32 { return sz / 4 })), gens[0], 0, true},
		{"capped", NewSized(hinted(cappedSizes, func(int32) int32 { return tau + 1 })), capped, tau, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := c.s.Bytes()
			checkAgainstMap(t, c.s, c.ops, c.tau)
			if grew := c.s.Bytes() > base; grew != c.grows {
				t.Fatalf("Bytes %d → %d: grew %v, want %v", base, c.s.Bytes(), grew, c.grows)
			}
			prev := c.ops
			for g := 1; g < len(gens); g++ {
				// Odd generations begin with Trim, which may return
				// grown tables to regions an earlier generation dirtied.
				if g%2 == 1 {
					c.s.Trim()
				} else {
					c.s.Reset(n)
				}
				checkEmpty(t, c.s, prev)
				prev = gens[g]
				if c.tau > 0 {
					prev = randomOps(rng, n, 20000, false)
					checkAgainstMap(t, c.s, prev, c.tau)
					continue
				}
				checkAgainstMap(t, c.s, prev, 0)
			}
		})
	}
}

// The pooled steady state: once tables have grown to the workload's size,
// Reset+refill cycles allocate nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, perNode = 32, 100
	s := New(n)
	fill := func() {
		s.Reset(n)
		for v := NodeID(0); v < n; v++ {
			for id := uint64(0); id < perNode; id++ {
				s.Insert(v, id*2654435761%idLimit, int32(id))
			}
		}
	}
	fill() // warm up table capacities
	if avg := testing.AllocsPerRun(20, fill); avg != 0 {
		t.Fatalf("steady-state Reset+fill allocates %v allocs/run, want 0", avg)
	}
}

// TestTrimFollowsLastGeneration pins Trim: it empties every set, keeps a
// grown table its set still needs, and returns a table more than twice
// its set's need to the slab — Bytes falls back with it — after which
// the store works as before.
func TestTrimFollowsLastGeneration(t *testing.T) {
	s := New(4)
	base := s.Bytes()
	for id := uint64(0); id < 100; id++ {
		s.Insert(1, id, 0)
	}
	grown := s.Bytes()
	if grown <= base {
		t.Fatalf("Bytes = %d after growth, want above the base %d", grown, base)
	}
	s.Trim()
	if s.Len(1) != 0 || s.MaxLen() != 0 {
		t.Fatalf("Len=%d MaxLen=%d after Trim, want empty sets", s.Len(1), s.MaxLen())
	}
	if got := s.Bytes(); got != grown {
		t.Fatalf("Bytes = %d after trimming a needed table, want %d", got, grown)
	}
	s.Reset(4)
	for id := uint64(0); id < 10; id++ {
		s.Insert(1, id, 0)
	}
	s.Trim()
	if got := s.Bytes(); got != base {
		t.Fatalf("Bytes = %d after trimming an oversized table, want the base %d", got, base)
	}
	s.Reset(4)
	for id := uint64(0); id < 50; id++ {
		if !s.Insert(1, id, int32(id)) {
			t.Fatalf("insert %d after Trim failed", id)
		}
	}
	if v, ok := s.Get(1, 49); !ok || v != 49 || s.Len(1) != 50 {
		t.Fatalf("Get after Trim = (%d, %v), Len %d", v, ok, s.Len(1))
	}
}

// TestSizedLayoutBytes pins Bytes and Trim on a sized layout: the slab
// holds one table per node of the fewest slots that keep its hint at or
// below ⅞ load (none for a hint of 0), Bytes reports exactly that slab
// plus the per-node meta entries and offsets, a set filled to its hint
// grows nothing, a set filled past it adds its grown table and the
// per-node index of grown tables, and Trim returns an oversized grown
// table to its slab region and drops the index once no grown table is
// left — never freeing the slab regions themselves, which Bytes keeps
// counting.
func TestSizedLayoutBytes(t *testing.T) {
	hints := []int32{0, 10, 100, 3}
	s := NewSized(hints)
	// Table sizes 0, 12, 115 and 4 slots keep each hint at or below ⅞
	// load: 10·8 ≤ 12·7, 100·8 ≤ 115·7, 3·8 ≤ 4·7.
	const perNode, slab = 8 + 4, (0 + 12 + 115 + 4) * slotBytes
	base := int64(len(hints)*perNode + slab)
	if got := s.Bytes(); got != base {
		t.Fatalf("Bytes = %d on a fresh sized layout, want %d", got, base)
	}
	fill := func(v NodeID, count int) {
		for id := range uint64(count) {
			if !s.Insert(v, id, int32(id)) {
				t.Fatalf("insert %d into node %d failed", id, v)
			}
		}
	}
	if allocs := testing.AllocsPerRun(1, func() {
		s.Reset(len(hints))
		for v, h := range hints {
			fill(NodeID(v), int(h))
		}
	}); allocs != 0 || s.Bytes() != base {
		t.Fatalf("filling every set to its hint made %v allocations and Bytes %d, want none and %d", allocs, s.Bytes(), base)
	}
	const index = 4 * 24 // the per-node index of grown tables
	s.Reset(len(hints))
	fill(3, 40) // 4 → 64 slots: 40·8 > 32·7
	if got, want := s.Bytes(), base+index+64*slotBytes; got != want {
		t.Fatalf("Bytes = %d after node 3 outgrew its region, want %d", got, want)
	}
	s.Trim()
	if got, want := s.Bytes(), base+index+64*slotBytes; got != want {
		t.Fatalf("Bytes = %d after trimming a needed table, want %d", got, want)
	}
	s.Reset(len(hints))
	fill(3, 5)
	s.Trim()
	if got := s.Bytes(); got != base {
		t.Fatalf("Bytes = %d after trimming an oversized table, want the sized base %d", got, base)
	}
	s.Reset(len(hints))
	fill(2, 100)
	fill(3, 3)
	if got := s.Bytes(); got != base {
		t.Fatalf("Bytes = %d after refilling the slab regions, want %d", got, base)
	}
	// Node 0's region is empty: its first entry grows a minimum table.
	fill(0, 1)
	if got, want := s.Bytes(), base+index+minTableSize*slotBytes; got != want || s.Len(0) != 1 {
		t.Fatalf("Bytes = %d, Len %d after an entry in an empty region, want %d and 1", got, s.Len(0), want)
	}
}

// TestDomainIsEnforced pins the id/value domain: the largest id and value
// round-trip, and an entry outside the domain panics rather than
// corrupting a slot.
func TestDomainIsEnforced(t *testing.T) {
	s := New(1)
	if !s.Insert(0, idLimit-1, valLimit-1) || !s.Insert(0, 0, 0) {
		t.Fatal("inserts at the domain's edges failed")
	}
	if v, ok := s.Get(0, idLimit-1); !ok || v != valLimit-1 {
		t.Fatalf("Get(idLimit−1) = (%d, %v), want (%d, true)", v, ok, valLimit-1)
	}
	if v, ok := s.Get(0, 0); !ok || v != 0 {
		t.Fatalf("Get(0) = (%d, %v), want (0, true)", v, ok)
	}
	for _, e := range []struct {
		id  uint64
		val int32
	}{{idLimit, 0}, {1, -1}, {1, valLimit}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put(%d, %d) outside the domain did not panic", e.id, e.val)
				}
			}()
			s.Put(0, e.id, e.val)
		}()
	}
}
