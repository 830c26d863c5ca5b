package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
)

// DecodeStrict decodes exactly one JSON value from r into v, the way every
// request body on the HTTP API is read: unknown object keys are errors,
// and so is anything after the value but whitespace (trailing junk, a
// second object).
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return fmt.Errorf("trailing data after the JSON value: %w", err)
	}
	return nil
}

// DecodeGraphBody decodes body into v as DecodeStrict does — the same
// accepted bodies, decoded values and errors — but reads an inline graph
// in place, so a large body is scanned once instead of three times
// (encoding/json finds a value's end, skips the graph member's bytes for
// its Unmarshaler, and only then hands them to WireGraph.UnmarshalJSON).
// v is a zero value and graph points at its field tagged "graph". When
// body is an object with exactly one key that folds to "graph", spelled
// so, unescaped, and holding a canonical wire graph, that member is
// parsed straight into *graph and only the other members go through
// DecodeStrict. Any other body, or one whose other members fail, is
// decoded whole by DecodeStrict. FuzzDecodeBody (cmd/cycleserved)
// checks the equivalence on both routes' bodies. Nothing decoded shares
// bytes with body.
func DecodeGraphBody(body []byte, v any, graph **WireGraph) error {
	var wg WireGraph
	p := wireParser{data: body}
	if rest, ok := p.cutGraph(&wg); ok && DecodeStrict(bytes.NewReader(rest), v) == nil {
		g := wg // on the heap only here: a body without a graph allocates none
		*graph = &g
		return nil
	}
	return DecodeStrict(bytes.NewReader(body), v)
}

// wireGraphFields is WireGraph without its UnmarshalJSON: the reflective
// decode the fast path falls back to.
type wireGraphFields WireGraph

// UnmarshalJSON decodes a wire graph. The canonical form clients send,
// {"n":N,"edges":[[u,v],…]} with each key at most once, decimal integers
// and int32 endpoints, is parsed straight into the edge slice; any other
// input — other or case-folded keys, escapes, floats, exponents, null,
// out-of-range integers, arrays that are not pairs, malformed JSON —
// takes encoding/json's reflective decode of the same struct with unknown
// fields disallowed. The fast path accepts only inputs that decode
// accepts, to the same value, so accepted graphs and rejections are those
// of the reflective decode by construction (FuzzWireGraph checks it);
// only a type error's message names wireGraphFields and the inner field
// path.
func (wg *WireGraph) UnmarshalJSON(data []byte) error {
	p := wireParser{data: data}
	if parsed := *wg; p.graph(&parsed) && p.end() {
		*wg = parsed
		return nil
	}
	return DecodeStrict(bytes.NewReader(data), (*wireGraphFields)(wg))
}

// wireParser is the canonical-form parser behind WireGraph.UnmarshalJSON.
// Every method reports false on input outside the canonical form, leaving
// the decision to the reflective decode.
type wireParser struct {
	data []byte
	i    int
}

func (p *wireParser) ws() {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// end reports whether only whitespace is left.
func (p *wireParser) end() bool {
	p.ws()
	return p.i == len(p.data)
}

// byte consumes c after optional whitespace.
func (p *wireParser) byte(c byte) bool {
	p.ws()
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

// int parses a decimal integer in [lo, hi] in JSON's number grammar
// without fraction or exponent (no leading zeros, no plus sign).
func (p *wireParser) int(lo, hi int64) (int64, bool) {
	p.ws()
	neg := p.i < len(p.data) && p.data[p.i] == '-'
	if neg {
		p.i++
	}
	start := p.i
	var v uint64
	for p.i < len(p.data) && p.data[p.i] >= '0' && p.data[p.i] <= '9' {
		if v > (math.MaxInt64-9)/10 {
			return 0, false
		}
		v = v*10 + uint64(p.data[p.i]-'0')
		p.i++
	}
	digits := p.i - start
	if digits == 0 || digits > 1 && p.data[start] == '0' {
		return 0, false
	}
	if p.i < len(p.data) {
		switch p.data[p.i] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	x := int64(v)
	if neg {
		x = -x
	}
	if x < lo || x > hi {
		return 0, false
	}
	return x, true
}

// key parses an object key that is exactly "n" or "edges", unescaped.
func (p *wireParser) key() (string, bool) {
	if !p.byte('"') {
		return "", false
	}
	for _, k := range [...]string{"n", "edges"} {
		if end := p.i + len(k); end < len(p.data) && string(p.data[p.i:end]) == k && p.data[end] == '"' {
			p.i = end + 1
			return k, p.byte(':')
		}
	}
	return "", false
}

// graph parses a canonical wire graph object into wg, which it touches
// only on success; fields absent from the input keep their values, as
// in the reflective decode.
func (p *wireParser) graph(wg *WireGraph) bool {
	if !p.byte('{') {
		return false
	}
	var (
		n             int64
		edges         [][2]graph.NodeID
		seenN, seenEs bool
	)
	if !p.byte('}') {
		for {
			k, ok := p.key()
			if !ok {
				return false
			}
			switch {
			case k == "n" && !seenN:
				if n, ok = p.int(math.MinInt, math.MaxInt); !ok {
					return false
				}
				seenN = true
			case k == "edges" && !seenEs:
				if edges, ok = p.edges(); !ok {
					return false
				}
				seenEs = true
			default:
				return false // a repeated key
			}
			if p.byte('}') {
				break
			}
			if !p.byte(',') {
				return false
			}
		}
	}
	if seenN {
		wg.N = int(n)
	}
	if seenEs {
		wg.Edges = edges
	}
	return true
}

// edges parses an array of [u,v] pairs (an empty array is a non-nil
// empty slice, as in the reflective decode).
func (p *wireParser) edges() ([][2]graph.NodeID, bool) {
	if !p.byte('[') {
		return nil, false
	}
	// Every pair opens one bracket: count them to allocate once.
	out := make([][2]graph.NodeID, 0, bytes.Count(p.data[p.i:], []byte{'['}))
	if p.byte(']') {
		return out, true
	}
	for {
		if !p.byte('[') {
			return nil, false
		}
		u, ok := p.int(math.MinInt32, math.MaxInt32)
		if !ok || !p.byte(',') {
			return nil, false
		}
		v, ok := p.int(math.MinInt32, math.MaxInt32)
		if !ok || !p.byte(']') {
			return nil, false
		}
		out = append(out, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
		if p.byte(']') {
			return out, true
		}
		if !p.byte(',') {
			return nil, false
		}
	}
}

// cutGraph splits a top-level object into its "graph" member, parsed
// into wg, and the rest of the body: the object with that member and
// one comma next to it cut out, followed by whatever the body holds
// after the object. It reports false unless the member exists, its key
// is the only one that folds to "graph", no key is escaped, and its
// value is a canonical wire graph. The other members are skipped by
// their string and bracket structure alone, which finds the end of
// every valid JSON value; the rest keeps every byte outside the cut, so
// DecodeStrict of the rest rejects whatever malformed JSON the skip
// passed over, and so would DecodeStrict of the whole body.
func (p *wireParser) cutGraph(wg *WireGraph) (rest []byte, ok bool) {
	if !p.byte('{') || p.byte('}') {
		return nil, false
	}
	from, to := -1, -1 // the cut
	comma := -1        // the comma before the current member, if any
	for {
		p.ws()
		start := p.i
		k, ok := p.str()
		if !ok || bytes.IndexByte(k, '\\') >= 0 || !p.byte(':') {
			return nil, false
		}
		switch {
		case string(k) == "graph" && from < 0:
			if !p.graph(wg) {
				return nil, false
			}
			from, to = start, p.i
			if comma >= 0 {
				from = comma
			}
		case bytes.EqualFold(k, []byte("graph")):
			return nil, false
		default:
			if !p.skip() {
				return nil, false
			}
		}
		switch {
		case p.byte('}'):
			if from < 0 {
				return nil, false
			}
			return append(p.data[:from:from], p.data[to:]...), true
		case !p.byte(','):
			return nil, false
		}
		comma = p.i - 1
		if from == start {
			to = p.i // the first member: cut the comma after it
		}
	}
}

// str parses a string and returns its raw bytes between the quotes.
func (p *wireParser) str() ([]byte, bool) {
	if !p.byte('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.data); p.i++ {
		switch p.data[p.i] {
		case '"':
			p.i++
			return p.data[start : p.i-1], true
		case '\\':
			p.i++
		}
	}
	return nil, false
}

// skip passes over one value: a string, an object or array by its
// brackets, or a scalar up to the next delimiter.
func (p *wireParser) skip() bool {
	p.ws()
	start := p.i
	depth := 0
	for p.i < len(p.data) {
		switch c := p.data[p.i]; c {
		case '"':
			if _, ok := p.str(); !ok {
				return false
			}
			if depth == 0 {
				return true
			}
			continue
		case '{', '[':
			depth++
		case '}', ']', ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return p.i > start
			}
			if c == '}' || c == ']' {
				if depth--; depth == 0 {
					p.i++
					return true
				}
			}
		}
		p.i++
	}
	return false
}
