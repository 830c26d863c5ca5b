package idset

import (
	"fmt"
	"math"
)

// NodeID mirrors graph.NodeID; the package depends on nothing so the
// substrate layers (graph, congest, core, baseline) can all use it.
type NodeID = int32

// The id/value domain. A slot is one uint64 packing id+1 above a valBits
// value, so an empty slot (0) is never a live entry, not even id 0 with
// value 0.
const (
	valBits = 28
	valMask = 1<<valBits - 1

	// idLimit bounds identifiers: every id is below it (2^36−1, so that
	// id+1 fits the slot's 36 high bits). Det walk keys take 34 bits,
	// node IDs 28.
	idLimit = 1<<(64-valBits) - 1
	// valLimit bounds values: every value lies in [0, valLimit), which
	// holds any node ID (congest.MaxNodes is 2^28).
	valLimit = 1 << valBits
)

// slotBytes is the size of a slot.
const slotBytes = 8

// minTableSize is the size of New's tables and of a table grown from an
// empty region.
const minTableSize = 4

// Bits of a meta entry: the generation in the high 32, then a flag that
// the node's table has grown out of its slab region, then the live count.
const (
	grownBit  = 1 << 31
	countMask = grownBit - 1
)

// Store is a per-node family of identifier sets. The zero value is not
// usable; call New or NewSized.
type Store struct {
	gen uint32
	// slab holds every node's home table: node v's is
	// slab[off[v]:off[v+1]], of any length. A table lives in its slab
	// region until it outgrows it and moves to ext.
	slab []uint64
	off  []uint32
	// meta[v] packs node v's generation (high 32 bits), its grown flag
	// and its live count (low 32): one load answers "is the set
	// current?", "where is its table?" and "how big is it?". A set whose
	// generation is stale reads as empty, and its table is cleared by
	// the first write of the new generation, so Reset stays O(1).
	meta []uint64
	// ext holds the tables grown out of their slab regions, indexed by
	// node and read only where meta carries the grown flag. It exists
	// only once some table has grown: a store whose sets fit their
	// regions pays no per-node header.
	ext [][]uint64
	// maxLen is the running maximum live count, packed like a meta entry
	// (generation high, count low) so Reset invalidates it for free, and
	// MaxLen is O(1) instead of an n-wide scan per query.
	maxLen uint64
	// grown is the bytes of the tables in ext; Bytes reports it next to
	// the slab.
	grown int64
}

func (s *Store) lenOf(v NodeID) int32 {
	m := s.meta[v]
	if uint32(m>>32) != s.gen {
		return 0
	}
	return int32(m & countMask)
}

// table is node v's table, given its meta entry m.
func (s *Store) table(v NodeID, m uint64) []uint64 {
	if m&grownBit != 0 {
		return s.ext[v]
	}
	return s.slab[s.off[v]:s.off[v+1]]
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
// growing: put grows a table only to insert past ⅞ load.
func tableSize(entries int) int {
	return (8*entries + 6) / 7
}

// Reset empties every set (O(1) via the generation stamp) and re-sizes the
// store to n nodes. Table capacity acquired by previous generations is
// retained, for any n up to the largest the store has held, which is what
// makes pooled reuse allocation-free: past the current length, meta
// entries keep stale generations, so their sets read as empty once a
// Reset brings them back into range. A store outgrowing its capacity is
// laid out afresh with a minimum-size table per node.
func (s *Store) Reset(n int) {
	s.gen++
	if n <= cap(s.meta) {
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
	s.meta = make([]uint64, n)
	s.off = make([]uint32, n+1)
	for v := range n {
		s.off[v+1] = s.off[v] + uint32(size(v))
	}
	s.slab = make([]uint64, s.off[n])
	s.ext = nil
	s.grown = 0
}

// Trim empties every set and returns each grown table more than twice
// the size its node's set needed to its slab region, across the whole
// capacity, so a retained store follows the last generation's needs
// instead of the maximum over every generation it served. Once no grown
// table is left, the per-node index of grown tables goes too. The slab
// itself stays whole: its regions are not separate allocations.
func (s *Store) Trim() {
	if s.ext != nil {
		meta := s.meta[:cap(s.meta)]
		for v, tbl := range s.ext {
			if tbl == nil {
				continue
			}
			m := meta[v]
			need := minTableSize
			if uint32(m>>32) == s.gen {
				need = max(need, tableSize(int(m&countMask)))
			}
			if len(tbl) > 2*need {
				// The region holds whatever it held before the table
				// grew; the bumped generation makes the next write
				// clear it.
				s.ext[v] = nil
				meta[v] = m &^ grownBit
				s.grown -= int64(len(tbl)) * slotBytes
			}
		}
		if s.grown == 0 {
			s.ext = nil
		}
	}
	s.gen++
}

// Bytes returns the store's retained size: its meta entries and slab
// offsets across the whole capacity, the slab, the tables grown out of
// it, and their per-node index while any exists.
func (s *Store) Bytes() int64 {
	const perNode = 8 + 4 // meta, slab offset
	return int64(cap(s.meta))*perNode + int64(cap(s.slab))*slotBytes + s.grown + int64(cap(s.ext))*24
}

// NumNodes returns the number of per-node sets.
func (s *Store) NumNodes() int { return len(s.meta) }

// hash is the splitmix64 finalizer: a full-avalanche mix, so that the
// high bits used for table indexing depend on every bit of the identifier.
func hash(id uint64) uint64 {
	id ^= id >> 30
	id *= 0xbf58476d1ce4e5b9
	id ^= id >> 27
	id *= 0x94d049bb133111eb
	id ^= id >> 31
	return id
}

// home is id's first probe in a table of size slots: the multiply-shift
// of the hash's high 32 bits, which maps onto any table length.
func home(id uint64, size int) int {
	return int((hash(id) >> 32) * uint64(size) >> 32)
}

// Len returns the size of node v's set.
func (s *Store) Len(v NodeID) int { return int(s.lenOf(v)) }

// MaxLen returns the largest set size across all nodes.
func (s *Store) MaxLen() int {
	m := s.maxLen
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
	m := s.meta[v]
	if uint32(m>>32) != s.gen || m&countMask == 0 {
		return 0, false
	}
	tbl := s.table(v, m)
	want := id + 1
	for i := home(id, len(tbl)); ; {
		sl := tbl[i]
		if sl == 0 {
			return 0, false
		}
		if sl>>valBits == want {
			return int32(sl & valMask), true
		}
		if i++; i == len(tbl) {
			i = 0
		}
	}
}

// Insert adds id → val to node v's set if id is absent and reports whether
// it inserted; an existing entry is left untouched (first-writer-wins, the
// semantics parent pointers need). id must be below idLimit and val in
// [0, valLimit).
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
// value if one existed (the upsert the k-ball TTL relaxation needs). id
// must be below idLimit and val in [0, valLimit).
func (s *Store) Put(v NodeID, id uint64, val int32) (prev int32, existed bool) {
	prev, existed, _ = s.put(v, id, val, true)
	return prev, existed
}

func (s *Store) put(v NodeID, id uint64, val int32, overwrite bool) (prev int32, existed, inserted bool) {
	if id >= idLimit || uint32(val) >= valLimit {
		panic(fmt.Sprintf("idset: entry (%d, %d) outside the id/value domain", id, val))
	}
	m := s.meta[v]
	tbl := s.table(v, m)
	if uint32(m>>32) != s.gen {
		// First write of this generation: the table still holds an
		// earlier generation's entries.
		m = uint64(s.gen)<<32 | m&grownBit
		clear(tbl)
	}
	live := int32(m & countMask)
	want := id + 1
	i := 0
	if live > 0 {
		for i = home(id, len(tbl)); tbl[i] != 0; {
			if sl := tbl[i]; sl>>valBits == want {
				prev = int32(sl & valMask)
				if overwrite {
					tbl[i] = sl&^valMask | uint64(val)
				}
				return prev, true, false
			}
			if i++; i == len(tbl) {
				i = 0
			}
		}
	}
	// id is absent. An insert past ⅞ load grows the table first, so every
	// probe finds an empty slot; a duplicate never grows one, so a table
	// sized for its set's entries holds it whatever arrives twice.
	if int(live+1)*8 > len(tbl)*7 {
		tbl = s.grow(v, tbl)
		m |= grownBit
		i = probeEmpty(tbl, id)
	} else if live == 0 {
		i = home(id, len(tbl)) // the table is empty
	}
	tbl[i] = want<<valBits | uint64(val)
	s.meta[v] = m&^countMask | uint64(live+1)
	if cur := s.maxLen; uint32(cur>>32) != s.gen || int32(uint32(cur)) <= live {
		s.maxLen = uint64(s.gen)<<32 | uint64(uint32(live+1))
	}
	return 0, false, true
}

// probeEmpty is the slot where id, absent from tbl, goes.
func probeEmpty(tbl []uint64, id uint64) int {
	i := home(id, len(tbl))
	for tbl[i] != 0 {
		if i++; i == len(tbl) {
			i = 0
		}
	}
	return i
}

// grow moves node v's live entries from tbl to a table of its own, twice
// tbl's size (at least minTableSize), and returns it.
func (s *Store) grow(v NodeID, tbl []uint64) []uint64 {
	if s.ext == nil {
		s.ext = make([][]uint64, cap(s.meta))
	}
	size := max(2*len(tbl), minTableSize)
	grown := make([]uint64, size)
	s.grown += int64(size-len(s.ext[v])) * slotBytes
	for _, sl := range tbl {
		if sl != 0 {
			grown[probeEmpty(grown, sl>>valBits-1)] = sl
		}
	}
	s.ext[v] = grown
	return grown
}

// AppendIDs appends the identifiers of node v's set to buf (in unspecified
// but deterministic table order) and returns the extended slice. Callers
// that need a canonical order sort the result.
func (s *Store) AppendIDs(v NodeID, buf []uint64) []uint64 {
	m := s.meta[v]
	if uint32(m>>32) != s.gen || m&countMask == 0 {
		return buf
	}
	for _, sl := range s.table(v, m) {
		if sl != 0 {
			buf = append(buf, sl>>valBits-1)
		}
	}
	return buf
}
