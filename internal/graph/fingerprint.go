package graph

import "fmt"

// Fingerprint is a stable 128-bit hash of a graph's structure. Two graphs
// have equal fingerprints exactly when their CSR representations are equal
// — and the CSR is canonical (Build sorts and deduplicates edges), so the
// fingerprint is invariant under builder insertion order, duplicate edges
// and self-loops: it identifies the graph itself, not how it was built.
//
// The value is pinned: it must never change across releases, because the
// detection service keys its cross-request result cache on it, durable
// corpora journal it, and CI smoke replays compare against stored
// values. fingerprint_test.go pins known values for exactly this
// reason — if a change to this file trips those tests, the change is wrong.
type Fingerprint [2]uint64

// String renders the fingerprint as 32 hex digits (high word first).
func (f Fingerprint) String() string {
	return fmt.Sprintf("%016x%016x", f[0], f[1])
}

// IsZero reports whether f is the zero fingerprint. The hash of any graph
// (even the empty one) mixes at least the vertex count, so the zero value
// can serve as an "unset" sentinel.
func (f Fingerprint) IsZero() bool { return f[0] == 0 && f[1] == 0 }

// fpMix advances one 64-bit accumulator lane by one value using the
// SplitMix64 finalizer over the running state — the same construction as
// sched.Tag, duplicated here so the graph package (which sched depends on
// nothing in, and which nothing below it may import) stays dependency-free
// and the pinned values are self-contained.
func fpMix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// fpBlockWords is the checkpoint granularity of the absorber: the two lane
// states are recorded after every fpBlockWords absorbed words. A mutated
// graph whose absorbed word stream shares a clean prefix with its parent
// resumes from the last checkpoint inside that prefix instead of rehashing
// from word zero. 1024 words ≈ 16 KiB of CSR per checkpoint and 16 bytes of
// memo per checkpoint, so the memo stays ~0.1% of the graph it describes.
const fpBlockWords = 1024

// fpMemo is the memoized result of one fingerprint computation: the final
// value plus the per-block lane-state checkpoints that children resume from.
type fpMemo struct {
	fp Fingerprint
	// cks[j] is the (h0,h1) lane state after (j+1)*fpBlockWords absorbed
	// words. Checkpoints are a pure function of the absorbed prefix, so a
	// child whose stream shares j clean blocks with its parent can reuse
	// cks[:j] verbatim as its own leading checkpoints.
	cks []Fingerprint
}

// fpResume links a spliced graph to its parent for fingerprint resume:
// every absorbed word before dirtyWord is byte-identical between the two
// graphs' streams, so the child can start from the parent's last checkpoint
// at or before dirtyWord. The link is dropped as soon as the fingerprint is
// memoized — a long mutation chain must not pin its ancestors in memory.
type fpResume struct {
	parent    *Graph
	dirtyWord int // index of the first absorbed word that may differ
}

// fpAbsorber is the two-lane sponge behind Fingerprint, with checkpointing.
// It must absorb exactly the word stream the original closed-form hash did:
// word 0 is the vertex count (with its lane-1 offset), then the offsets
// pairwise, then the targets pairwise, each slice with its own high-bit
// tail marker when its length is odd.
type fpAbsorber struct {
	h0, h1 uint64
	words  int
	cks    []Fingerprint
}

// newFPAbsorber starts a stream: distinct lane seeds (digits of π and e) so
// a collision must hold in two decorrelated 64-bit hashes at once, then the
// vertex count as word 0.
func newFPAbsorber(n int) fpAbsorber {
	a := fpAbsorber{h0: 0x243f6a8885a308d3, h1: 0xb7e151628aed2a6a}
	a.h0 = fpMix(a.h0, uint64(n))
	a.h1 = fpMix(a.h1, uint64(n)+0x9d)
	a.words = 1
	return a
}

func (a *fpAbsorber) mix(w uint64) {
	a.h0 = fpMix(a.h0, w)
	a.h1 = fpMix(a.h1, w^0xa5a5a5a5a5a5a5a5)
	a.words++
	if a.words%fpBlockWords == 0 {
		a.cks = append(a.cks, Fingerprint{a.h0, a.h1})
	}
}

// absorb mixes vals[from:] pairwise, with the tail marker for an odd total
// length. from must be even: pair boundaries are absolute positions in
// vals, so a resumed absorption produces the same words as a full one.
func (a *fpAbsorber) absorb(vals []int32, from int) {
	i := from
	for ; i+1 < len(vals); i += 2 {
		a.mix(uint64(uint32(vals[i]))<<32 | uint64(uint32(vals[i+1])))
	}
	if i < len(vals) {
		a.mix(uint64(uint32(vals[i])) | 1<<63) // tail marker: ≠ any pair
	}
}

// Fingerprint returns the stable 128-bit structural hash of g. It is a
// pure function of (NumNodes, adjacency structure), and since Graph is
// immutable the value is computed once and memoized — the detection
// service hashes every request's graph to form its cache key, and a
// cache hit must not pay an O(n+m) rehash of a static value. Concurrent
// first calls may both compute; they store the identical value, so the
// race is benign.
func (g *Graph) Fingerprint() Fingerprint {
	return g.memo().fp
}

func (g *Graph) memo() *fpMemo {
	if m := g.fpm.Load(); m != nil {
		return m
	}
	var m *fpMemo
	if r := g.fpr.Load(); r != nil {
		m = g.resumedFingerprint(r)
	} else {
		m = g.fullFingerprint()
	}
	g.fpm.Store(m)
	// Release the parent link only after the memo is published, so a racing
	// reader never sees both unset and recomputes from scratch needlessly.
	g.fpr.Store(nil)
	return m
}

// fullFingerprint computes the hash from word zero: two independent
// accumulator lanes absorb the vertex count, every row boundary and every
// CSR target, packing two int32 values per absorbed word. Cost is one pass
// over the CSR; the only allocation is the checkpoint slice.
func (g *Graph) fullFingerprint() *fpMemo {
	a := newFPAbsorber(g.NumNodes())
	// Absorb offsets and targets pairwise. The offsets delimit rows (so
	// ["0 1","2"] and ["0","1 2"] differ even with equal target streams),
	// and the targets are each row's sorted adjacency list.
	a.absorb(g.offsets, 0)
	a.absorb(g.targets, 0)
	return &fpMemo{fp: Fingerprint{a.h0, a.h1}, cks: a.cks}
}

// resumedFingerprint computes the identical hash by restarting the stream
// from the parent's last checkpoint inside the clean shared prefix. The
// splice path guarantees parent and child have equal vertex counts, so the
// two streams agree on word 0, on pair alignment, and on every offsets word
// before r.dirtyWord; resuming therefore absorbs the same words a full pass
// would from that point on — same function, skipped prefix.
func (g *Graph) resumedFingerprint(r *fpResume) *fpMemo {
	pm := r.parent.memo()
	j := r.dirtyWord / fpBlockWords // whole clean blocks shared with parent
	if j == 0 || j > len(pm.cks) {
		return g.fullFingerprint()
	}
	ck := pm.cks[j-1]
	a := fpAbsorber{h0: ck[0], h1: ck[1], words: j * fpBlockWords}
	a.cks = append(make([]Fingerprint, 0, len(pm.cks)), pm.cks[:j]...)
	// Word w ≥ 1 of the stream is offsets pair w-1, so the first word not
	// covered by the checkpoint starts at offsets index 2*(j*fpBlockWords-1).
	// The splice path's dirtyWord always lies inside the offsets region
	// (an edge insert at row u shifts offsets[u+1:]), so the resume point
	// does too: j*fpBlockWords ≤ dirtyWord ≤ 1+(len(offsets)-1)/2.
	a.absorb(g.offsets, 2*(j*fpBlockWords-1))
	a.absorb(g.targets, 0)
	return &fpMemo{fp: Fingerprint{a.h0, a.h1}, cks: a.cks}
}

// noteSpliceParent records the fingerprint-resume link on a freshly spliced
// graph: the smallest row that received an insertion determines the first
// absorbed word that may differ from the parent's stream. Must be called
// before the graph is published (it is not synchronized with readers).
func (g *Graph) noteSpliceParent(parent *Graph, firstDirtyRow int) {
	// offsets[i] changes for every i > firstDirtyRow; index firstDirtyRow+1
	// lives in offsets pair (firstDirtyRow+1)/2, which is stream word
	// 1 + (firstDirtyRow+1)/2.
	g.fpr.Store(&fpResume{parent: parent, dirtyWord: 1 + (firstDirtyRow+1)/2})
}
