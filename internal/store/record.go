package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
)

// opKind tags one corpus mutation in the journal. The values are part of
// the on-disk format and must never be renumbered.
type opKind byte

const (
	// opCreate installs a new named graph (declared vertex count + full
	// edge list). Snapshot graph records reuse this op with seq 0.
	opCreate opKind = 1
	// opAddEdges appends undirected edges to an existing graph
	// (copy-on-write on replay, exactly as the live mutation path).
	// Written by earlier builds; replay keeps working, new mutations
	// journal opAddEdgesFP instead.
	opAddEdges opKind = 2
	// opDelete removes a named graph.
	opDelete opKind = 3
	// opAddEdgesFP is opAddEdges plus the 128-bit fingerprint of the
	// pre-mutation (parent) graph. Replay verifies the recovered parent
	// against it before applying the delta — a recovered mutation chain
	// that diverges from the acknowledged one is corruption, not a graph
	// to silently rebuild differently.
	opAddEdgesFP opKind = 4
)

// MaxNameLen bounds corpus names in records — long enough for any
// operational naming scheme, small enough that a corrupted length can
// never drive a giant allocation. Exported so the service layer can
// reject over-long names as a client error before they reach the store.
const MaxNameLen = 512

// record is one decoded corpus mutation. The payload layout (all values
// uvarint unless noted) is:
//
//	seq       uvarint   mutation sequence number (0 in snapshot records)
//	op        1 byte    opCreate | opAddEdges | opDelete
//	nameLen   uvarint   followed by nameLen bytes of name
//	opCreate:     n uvarint, m uvarint, then m × (u uvarint, v uvarint)
//	opAddEdges:   m uvarint, then m × (u uvarint, v uvarint)
//	opDelete:     nothing
//	opAddEdgesFP: parent fingerprint (16 bytes, two big-endian uint64,
//	              high word first), then the opAddEdges body
//
// The layout is pinned: recovery of journals written by earlier builds
// must keep working, so changes are append-only (new opKinds).
type record struct {
	seq   uint64
	op    opKind
	name  string
	n     int               // opCreate: declared vertex count
	edges [][2]graph.NodeID // opCreate, opAddEdges, opAddEdgesFP
	// parent is the pre-mutation graph's fingerprint (opAddEdgesFP).
	parent graph.Fingerprint
}

// encode appends the record payload (frame-less) to buf.
func (r *record) encode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, r.seq)
	buf = append(buf, byte(r.op))
	buf = binary.AppendUvarint(buf, uint64(len(r.name)))
	buf = append(buf, r.name...)
	switch r.op {
	case opCreate:
		buf = binary.AppendUvarint(buf, uint64(r.n))
		buf = appendEdges(buf, r.edges)
	case opAddEdges:
		buf = appendEdges(buf, r.edges)
	case opAddEdgesFP:
		buf = binary.BigEndian.AppendUint64(buf, r.parent[0])
		buf = binary.BigEndian.AppendUint64(buf, r.parent[1])
		buf = appendEdges(buf, r.edges)
	}
	return buf
}

// size returns the exact encoded payload length of the record without
// materializing it — the write-side half of the frame-cap contract
// (see maxRecordPayload). It walks the edge list but allocates nothing,
// so mutation paths can price a record before committing to encode it.
func (r *record) size() int {
	n := uvarintLen(r.seq) + 1 + uvarintLen(uint64(len(r.name))) + len(r.name)
	switch r.op {
	case opCreate:
		n += uvarintLen(uint64(r.n)) + edgesSize(r.edges)
	case opAddEdges:
		n += edgesSize(r.edges)
	case opAddEdgesFP:
		n += 16 + edgesSize(r.edges)
	}
	return n
}

func edgesSize(edges [][2]graph.NodeID) int {
	n := uvarintLen(uint64(len(edges)))
	for _, e := range edges {
		n += uvarintLen(uint64(uint32(e[0]))) + uvarintLen(uint64(uint32(e[1])))
	}
	return n
}

// uvarintLen is the byte length binary.AppendUvarint would use for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func appendEdges(buf []byte, edges [][2]graph.NodeID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = binary.AppendUvarint(buf, uint64(uint32(e[0])))
		buf = binary.AppendUvarint(buf, uint64(uint32(e[1])))
	}
	return buf
}

// decodeRecord parses one record payload. Every failure wraps ErrCorrupt:
// the payload passed its frame CRC, so a malformed body means the file
// holds something this build cannot interpret — never worth guessing at.
func decodeRecord(p []byte) (*record, error) {
	d := recDecoder{p: p}
	r := &record{}
	r.seq = d.uvarint("seq")
	r.op = opKind(d.byte("op"))
	nameLen := d.uvarint("name length")
	if d.err == nil && nameLen > MaxNameLen {
		d.fail(fmt.Errorf("name length %d exceeds %d", nameLen, MaxNameLen))
	}
	r.name = string(d.bytes(int(nameLen), "name"))
	switch r.op {
	case opCreate:
		n := d.uvarint("vertex count")
		if d.err == nil && n > graph.MaxReadNodes {
			d.fail(fmt.Errorf("vertex count %d exceeds %d", n, graph.MaxReadNodes))
		}
		r.n = int(n)
		r.edges = d.edges()
	case opAddEdges:
		r.edges = d.edges()
	case opAddEdgesFP:
		fp := d.bytes(16, "parent fingerprint")
		if d.err == nil {
			r.parent[0] = binary.BigEndian.Uint64(fp)
			r.parent[1] = binary.BigEndian.Uint64(fp[8:])
		}
		r.edges = d.edges()
	case opDelete:
	default:
		if d.err == nil {
			d.fail(fmt.Errorf("unknown op %d", r.op))
		}
	}
	if d.err == nil && len(d.p) != 0 {
		d.fail(fmt.Errorf("%d trailing bytes after record", len(d.p)))
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: record: %v", ErrCorrupt, d.err)
	}
	return r, nil
}

// recDecoder is a cursor over a record payload that latches its first
// error, so decode code reads linearly without per-field error plumbing.
type recDecoder struct {
	p   []byte
	err error
}

func (d *recDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *recDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.fail(fmt.Errorf("truncated or overlong %s varint", what))
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *recDecoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.p) == 0 {
		d.fail(fmt.Errorf("missing %s byte", what))
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

func (d *recDecoder) bytes(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.p) {
		d.fail(fmt.Errorf("%s: want %d bytes, have %d", what, n, len(d.p)))
		return nil
	}
	b := d.p[:n]
	d.p = d.p[n:]
	return b
}

func (d *recDecoder) edges() [][2]graph.NodeID {
	m := d.uvarint("edge count")
	if d.err != nil {
		return nil
	}
	// Plausibility before allocation: every encoded edge takes at least
	// two bytes, so a claimed count beyond the remaining payload is
	// corruption — not a reason to allocate a giant slice.
	if m > uint64(len(d.p)) {
		d.fail(fmt.Errorf("edge count %d exceeds remaining payload %d", m, len(d.p)))
		return nil
	}
	edges := make([][2]graph.NodeID, 0, m)
	for i := uint64(0); i < m; i++ {
		u := d.uvarint("edge endpoint")
		v := d.uvarint("edge endpoint")
		if d.err != nil {
			return nil
		}
		if u > graph.MaxReadNodes || v > graph.MaxReadNodes {
			d.fail(fmt.Errorf("edge endpoint out of range: [%d,%d]", u, v))
			return nil
		}
		edges = append(edges, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
	}
	return edges
}
