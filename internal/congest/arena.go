package congest

import (
	"slices"
	"sync"
	"weak"
)

// Arena retains detector state between detections, so that a miss reuses
// the buffers of earlier ones instead of allocating its own: engine
// sessions (re-laid onto any network they have the capacity for) and,
// through Take and Keep, the state the detector layers build on them
// (color-BFS invocations, walk-key stores, relay queues). It is reached
// through Runtime.Arena; a nil arena retains nothing, and every engine
// and detector then allocates per call.
//
// Retention is bounded three ways. The arena holds at most Slots values
// of each type (a service admits Slots detections at once, so that is
// one set per running detection; a new value displaces the oldest), no
// value larger than ArenaMaxValueBytes, and at most ArenaMaxBytes in
// all; a value past either byte bound is dropped rather than retained.
// And it holds values only weakly: retained state is not
// live heap, so it never raises the garbage collector's goal — a
// collection reclaims whatever no detection has taken back since, and
// the next detection allocates afresh. Take lends a value only to a
// network at least half its capacity, so the state a detection holds
// live is never more than twice what it needs. Safe for concurrent use.
type Arena struct {
	slots int

	mu    sync.Mutex
	bytes int64
	lists map[any]pruner // kind[T]{} → *kept[T]
}

// ArenaMaxBytes caps the bytes an Arena retains: past it, state is
// dropped, not pooled. It covers a few sets of the few-thousand-node
// networks and fused batches misses run on, and bounds the sum on a
// service with many Slots; the state of a cold run on a much larger
// graph is past ArenaMaxValueBytes and never retained.
const ArenaMaxBytes = 8 << 20

// ArenaMaxValueBytes caps the size of one retained value; a larger one
// is dropped. Two costs of retention grow with a value's size. A
// retained value is reused only when no collection has run since it was
// kept, so whether the next detection reuses it or allocates afresh is
// up to the collector's timing, and the heap's peak moves with it from
// one run of the same requests to the next (the 4.5 MiB session of a
// 20000-node network put cycleserved's peak RSS anywhere from 33 to 44
// MiB). And a reused value is whole from the start of its run, where a
// fresh color-BFS invocation grows during it, so a collection that
// lands mid-run marks more live heap (reusing the 1 MiB walk-key
// protocols of 2000-node graphs raised peak RSS by an eighth while fresh
// ones still grew). The cap keeps the sessions and color-BFS
// invocations of networks up to a few thousand nodes.
const ArenaMaxValueBytes = 512 << 10

// kind[T] keys the arena's list of retained *T.
type kind[T any] struct{}

// kept is the list of retained *T; keptItem is one value with its
// capacity (the largest network it can be laid onto) and its size.
type kept[T any] struct{ items []keptItem[T] }

type keptItem[T any] struct {
	p            weak.Pointer[T]
	nodes, edges int
	bytes        int64
}

// pruner is a list of any type: prune forgets the values the collector
// reclaimed and returns their bytes.
type pruner interface{ prune() int64 }

func (l *kept[T]) prune() (freed int64) {
	for i := 0; i < len(l.items); {
		if l.items[i].p.Value() != nil {
			i++
			continue
		}
		freed += l.drop(i)
	}
	return freed
}

// drop removes item i, keeping the rest in the order they were kept,
// and returns its bytes.
func (l *kept[T]) drop(i int) int64 {
	bytes := l.items[i].bytes
	l.items = slices.Delete(l.items, i, i+1)
	return bytes
}

// fits reports whether a capacity c serves a need of n: c ≥ n, and c ≤ 2n
// so the capacity a run holds live is at most twice what it uses.
func fits(c, n int) bool { return c >= n && c <= 2*n }

// NewArena returns an arena retaining at most slots values of each type.
func NewArena(slots int) *Arena {
	return &Arena{slots: max(slots, 1), lists: make(map[any]pruner)}
}

// list returns the arena's list of *T. Caller holds a.mu.
func list[T any](a *Arena) *kept[T] {
	if l, ok := a.lists[kind[T]{}]; ok {
		return l.(*kept[T])
	}
	l := &kept[T]{}
	a.lists[kind[T]{}] = l
	return l
}

// prune forgets every reclaimed value. Caller holds a.mu.
func (a *Arena) prune() {
	for _, l := range a.lists {
		a.bytes -= l.prune()
	}
}

// Take removes and returns the smallest retained *T whose capacity
// covers nodes vertices and edges directed edges by at most a factor of
// two, or nil when none does (or a is nil).
func Take[T any](a *Arena, nodes, edges int) *T {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.prune()
	l := list[T](a)
	best := -1
	for i, it := range l.items {
		if fits(it.nodes, nodes) && fits(it.edges, edges) && (best < 0 || it.bytes < l.items[best].bytes) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	v := l.items[best].p.Value()
	a.bytes -= l.drop(best)
	return v
}

// Keep offers v, with its capacity, for retention; bytes is its size.
// The caller hands v over and must not touch it again: the arena either
// retains it for a later Take or leaves it to the garbage collector.
func Keep[T any](a *Arena, v *T, nodes, edges int, bytes int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.prune()
	l := list[T](a)
	full := len(l.items) >= a.slots
	after := a.bytes + bytes
	if full {
		after -= l.items[0].bytes
	}
	if bytes > ArenaMaxValueBytes || after > ArenaMaxBytes {
		return
	}
	if full {
		a.bytes -= l.drop(0) // the oldest
	}
	a.bytes += bytes
	l.items = append(l.items, keptItem[T]{p: weak.Make(v), nodes: nodes, edges: edges, bytes: bytes})
}

// Bytes returns the bytes the arena currently retains: those of the
// values not yet reclaimed by the collector (0 for nil).
func (a *Arena) Bytes() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.prune()
	return a.bytes
}
