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

// Randomized cross-check against Go maps, including growth well past the
// initial table size and interleaved generations.
func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 16
	s := New(n)
	for gen := 0; gen < 5; gen++ {
		ref := make([]map[uint64]int32, n)
		for v := range ref {
			ref[v] = make(map[uint64]int32)
		}
		ops := 20000
		for i := 0; i < ops; i++ {
			v := NodeID(rng.IntN(n))
			id := uint64(rng.IntN(500))
			val := int32(rng.IntN(1000))
			switch rng.IntN(3) {
			case 0:
				inserted := s.Insert(v, id, val)
				if _, dup := ref[v][id]; dup == inserted {
					t.Fatalf("gen %d op %d: Insert inserted=%v, map dup=%v", gen, i, inserted, dup)
				}
				if !inserted {
					break
				}
				ref[v][id] = val
			case 1:
				prev, existed := s.Put(v, id, val)
				want, wantExisted := ref[v][id]
				if existed != wantExisted || (existed && prev != want) {
					t.Fatalf("gen %d op %d: Put = (%d,%v), want (%d,%v)", gen, i, prev, existed, want, wantExisted)
				}
				ref[v][id] = val
			default:
				got, ok := s.Get(v, id)
				want, wantOK := ref[v][id]
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("gen %d op %d: Get = (%d,%v), want (%d,%v)", gen, i, got, ok, want, wantOK)
				}
			}
		}
		maxLen := 0
		for v := 0; v < n; v++ {
			if s.Len(NodeID(v)) != len(ref[v]) {
				t.Fatalf("gen %d: Len(%d) = %d, want %d", gen, v, s.Len(NodeID(v)), len(ref[v]))
			}
			if len(ref[v]) > maxLen {
				maxLen = len(ref[v])
			}
			ids := s.AppendIDs(NodeID(v), nil)
			slices.Sort(ids)
			var want []uint64
			for id := range ref[v] {
				want = append(want, id)
			}
			slices.Sort(want)
			if !slices.Equal(ids, want) {
				t.Fatalf("gen %d: AppendIDs(%d) mismatch", gen, v)
			}
		}
		if s.MaxLen() != maxLen {
			t.Fatalf("gen %d: MaxLen = %d, want %d", gen, s.MaxLen(), maxLen)
		}
		s.Reset(n)
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
				s.Insert(v, id*2654435761, int32(id))
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
