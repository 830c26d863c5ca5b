package idset

import (
	"math"
	"sync/atomic"
)

// NodeID mirrors graph.NodeID; the package depends on nothing so the
// substrate layers (graph, congest, core, baseline) can all use it.
type NodeID = int32

// slot is one open-addressing table entry; it is live iff gen matches the
// store's current generation. The generation is 32-bit so a slot packs
// into 16 bytes (a Reset every microsecond would take an hour and a half
// to wrap, and sets are reused on far coarser timescales), which matters
// because the per-node minimum tables form one large slab.
type slot struct {
	id  uint64
	gen uint32
	val int32
}

const minTableSize = 4 // power of two

// slotBytes is the size of a slot.
const slotBytes = 16

// Store is a per-node family of identifier sets. The zero value is not
// usable; call New or NewSized.
type Store struct {
	gen    uint32
	tables [][]slot // per-node open-addressing tables
	// slab holds every node's home table: node v's is
	// slab[off[v]:off[v+1]], a power of two of at least minTableSize
	// slots. A table lives in its slab region until it outgrows it; a
	// grown table is always larger than its home, so len(tables[v]) ==
	// homeLen(v) tells the two apart.
	slab []slot
	off  []uint32
	// meta[v] packs node v's generation (high 32 bits) and live count
	// (low 32): one load answers both "is the set current?" and "how
	// big is it?", which the insert and length paths ask together.
	meta []uint64
	// maxLen is the running maximum live count, packed like a meta entry
	// (generation high, count low) so Reset invalidates it for free. It
	// is atomic because inserts for distinct nodes may race; the common
	// insert pays one relaxed load, and a CAS happens only when a set
	// strictly exceeds the watermark — at most max-congestion times per
	// generation, not per insert. MaxLen is then O(1) instead of an
	// n-wide scan per query.
	maxLen atomic.Uint64
	// grown is the bytes of the tables grown out of their slab regions;
	// Bytes reports it next to the slab. Atomic because inserts for
	// distinct nodes may race.
	grown atomic.Int64
}

func (s *Store) lenOf(v NodeID) int32 {
	m := s.meta[v]
	if uint32(m>>32) != s.gen {
		return 0
	}
	return int32(uint32(m))
}

// New returns a store with one empty set per node.
func New(n int) *Store {
	s := &Store{}
	s.Reset(n)
	return s
}

// NewSized returns a store with one empty set per node, node v's table
// sized to take hints[v] entries without growing. Every table is carved
// from one slab, so a store whose hints cover its sets is built in a
// handful of allocations and never grows; a set that outgrows its hint
// grows as in any store.
func NewSized(hints []int32) *Store {
	s := &Store{}
	s.gen++
	s.layout(len(hints), func(v int) int { return tableSize(int(hints[v])) })
	return s
}

// tableSize is the smallest table that takes entries inserts without
// growing: put grows a table only to insert past ¾ load.
func tableSize(entries int) int {
	size := minTableSize
	for (entries-1)*4 >= size*3 {
		size *= 2
	}
	return size
}

// Reset empties every set (O(1) via the generation stamp) and re-sizes the
// store to n nodes. Table capacity acquired by previous generations is
// retained, for any n up to the largest the store has held, which is what
// makes pooled reuse allocation-free: past the current length, tables and
// meta entries keep stale generations, so they read as empty once a
// Reset brings them back into range. A store outgrowing its capacity is
// laid out afresh with a minimum-size table per node.
func (s *Store) Reset(n int) {
	s.gen++
	if n <= cap(s.meta) {
		s.tables = s.tables[:n]
		s.meta = s.meta[:n]
		return
	}
	s.layout(n, func(int) int { return minTableSize })
}

// layout gives the store n empty sets, node v's table of size(v) slots,
// all carved from one slab: n separate first-touch allocations become
// one, and the sets stay contiguous in memory. Only tables that outgrow
// their slab region get individual backing from grow.
func (s *Store) layout(n int, size func(v int) int) {
	s.tables = make([][]slot, n)
	s.meta = make([]uint64, n)
	s.off = make([]uint32, n+1)
	for v := range n {
		s.off[v+1] = s.off[v] + uint32(size(v))
	}
	s.slab = make([]slot, s.off[n])
	s.grown.Store(0)
	for v := range s.tables {
		s.tables[v] = s.homeTable(v)
	}
}

// homeTable is node v's table in the slab.
func (s *Store) homeTable(v int) []slot {
	return s.slab[s.off[v]:s.off[v+1]:s.off[v+1]]
}

// homeLen is the size of node v's table in the slab.
func (s *Store) homeLen(v int) int { return int(s.off[v+1] - s.off[v]) }

// Trim empties every set and returns each grown table more than twice
// the size its node's set needed to its slab region, across the whole
// capacity, so a retained store follows the last generation's needs
// instead of the maximum over every generation it served. The slab
// itself stays whole: its regions are not separate allocations.
func (s *Store) Trim() {
	tables, meta := s.tables[:cap(s.tables)], s.meta[:cap(s.meta)]
	for v, tbl := range tables {
		if len(tbl) == s.homeLen(v) {
			continue
		}
		need := minTableSize
		if m := meta[v]; uint32(m>>32) == s.gen {
			need = tableSize(int(uint32(m)))
		}
		if len(tbl) > 2*need {
			tables[v] = s.homeTable(v)
			s.grown.Add(-int64(len(tbl)) * slotBytes)
		}
	}
	s.gen++
}

// Bytes returns the store's retained size: its per-node table headers,
// meta and slab offsets across the whole capacity, the slab, and the
// tables grown out of it.
func (s *Store) Bytes() int64 {
	const perNode = 8 + 24 + 4 // meta, table header, slab offset
	return int64(cap(s.meta))*perNode + int64(cap(s.slab))*slotBytes + s.grown.Load()
}

// NumNodes returns the number of per-node sets.
func (s *Store) NumNodes() int { return len(s.meta) }

// hash is the splitmix64 finalizer: a full-avalanche mix so that the
// low bits used for table indexing depend on every bit of the identifier.
func hash(id uint64) uint64 {
	id ^= id >> 30
	id *= 0xbf58476d1ce4e5b9
	id ^= id >> 27
	id *= 0x94d049bb133111eb
	id ^= id >> 31
	return id
}

// Len returns the size of node v's set.
func (s *Store) Len(v NodeID) int { return int(s.lenOf(v)) }

// MaxLen returns the largest set size across all nodes.
func (s *Store) MaxLen() int {
	m := s.maxLen.Load()
	if uint32(m>>32) != s.gen {
		return 0
	}
	return int(uint32(m))
}

// MaxLenRange returns the largest set size among nodes in [lo, hi).
// Unlike MaxLen it is an O(hi-lo) scan of the meta slab, except over the
// whole store, where it is MaxLen; fused sessions use it to split the
// congestion watermark by component (sets only ever grow within a
// generation, so the final per-node length IS the node's historical
// maximum).
func (s *Store) MaxLenRange(lo, hi NodeID) int {
	if lo == 0 && int(hi) == len(s.meta) {
		return s.MaxLen()
	}
	best := int32(0)
	for v := lo; v < hi; v++ {
		if l := s.lenOf(v); l > best {
			best = l
		}
	}
	return int(best)
}

// Get returns the value stored for id in node v's set.
func (s *Store) Get(v NodeID, id uint64) (int32, bool) {
	if s.lenOf(v) == 0 {
		return 0, false
	}
	tbl := s.tables[v]
	mask := uint64(len(tbl) - 1)
	for i := hash(id) & mask; ; i = (i + 1) & mask {
		sl := &tbl[i]
		if sl.gen != s.gen {
			return 0, false
		}
		if sl.id == id {
			return sl.val, true
		}
	}
}

// Insert adds id → val to node v's set if id is absent and reports whether
// it inserted; an existing entry is left untouched (first-writer-wins, the
// semantics parent pointers need).
func (s *Store) Insert(v NodeID, id uint64, val int32) bool {
	_, _, inserted := s.put(v, id, val, false)
	return inserted
}

// InsertCapped is Insert with a capacity bound: when node v's set
// already holds capLen entries and id is absent, nothing is inserted and
// capped is reported. One meta load and one probe settle the duplicate
// check, the bound, and the insertion together (callers that checked
// Len before Insert paid both twice).
func (s *Store) InsertCapped(v NodeID, id uint64, val int32, capLen int32) (inserted, capped bool) {
	if s.lenOf(v) >= capLen {
		_, dup := s.Get(v, id)
		return false, !dup
	}
	_, _, inserted = s.put(v, id, val, false)
	return inserted, false
}

// CapLen converts a set-size bound to InsertCapped's int32 domain,
// saturating at math.MaxInt32. A set's live count is itself an int32, so
// every bound at or above MaxInt32 caps exactly the same sets: none.
func CapLen(bound int) int32 {
	return int32(min(bound, math.MaxInt32))
}

// Put adds or overwrites id → val in node v's set, returning the previous
// value if one existed (the upsert the k-ball TTL relaxation needs).
func (s *Store) Put(v NodeID, id uint64, val int32) (prev int32, existed bool) {
	prev, existed, _ = s.put(v, id, val, true)
	return prev, existed
}

func (s *Store) put(v NodeID, id uint64, val int32, overwrite bool) (prev int32, existed, inserted bool) {
	live := s.lenOf(v)
	tbl := s.tables[v]
	mask := uint64(len(tbl) - 1)
	i := hash(id) & mask
	for ; tbl[i].gen == s.gen; i = (i + 1) & mask {
		if tbl[i].id == id {
			prev = tbl[i].val
			if overwrite {
				tbl[i].val = val
			}
			return prev, true, false
		}
	}
	// id is absent. An insert at ¾ load grows the table first, so every
	// probe finds a dead slot; a duplicate never grows one, so a table
	// sized for its set's entries holds it whatever arrives twice.
	if int(live)*4 >= len(tbl)*3 {
		tbl = s.grow(v)
		mask = uint64(len(tbl) - 1)
		for i = hash(id) & mask; tbl[i].gen == s.gen; i = (i + 1) & mask {
		}
	}
	tbl[i] = slot{id: id, gen: s.gen, val: val}
	s.meta[v] = uint64(s.gen)<<32 | uint64(uint32(live+1))
	s.raiseMax(live + 1)
	return 0, false, true
}

// raiseMax lifts the packed watermark to newLen if it exceeds the
// current generation's maximum.
func (s *Store) raiseMax(newLen int32) {
	packed := uint64(s.gen)<<32 | uint64(uint32(newLen))
	for {
		cur := s.maxLen.Load()
		if uint32(cur>>32) == s.gen && int32(uint32(cur)) >= newLen {
			return
		}
		if s.maxLen.CompareAndSwap(cur, packed) {
			return
		}
	}
}

// grow doubles node v's table and re-inserts the live entries.
func (s *Store) grow(v NodeID) []slot {
	old := s.tables[v]
	size := 2 * len(old)
	tbl := make([]slot, size)
	grown := size
	if len(old) != s.homeLen(int(v)) {
		grown -= len(old) // the table it replaces had grown too
	}
	s.grown.Add(int64(grown) * slotBytes)
	mask := uint64(size - 1)
	for oi := range old {
		sl := &old[oi]
		if sl.gen != s.gen {
			continue
		}
		for i := hash(sl.id) & mask; ; i = (i + 1) & mask {
			if tbl[i].gen != s.gen {
				tbl[i] = *sl
				break
			}
		}
	}
	s.tables[v] = tbl
	return tbl
}

// AppendIDs appends the identifiers of node v's set to buf (in unspecified
// but deterministic table order) and returns the extended slice. Callers
// that need a canonical order sort the result.
func (s *Store) AppendIDs(v NodeID, buf []uint64) []uint64 {
	if s.lenOf(v) == 0 {
		return buf
	}
	for i := range s.tables[v] {
		if s.tables[v][i].gen == s.gen {
			buf = append(buf, s.tables[v][i].id)
		}
	}
	return buf
}
