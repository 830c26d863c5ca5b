package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
)

// workload is one traffic mix driven through cycleserved.
type workload struct {
	name string
	why  string
	// k is the half cycle length of the workload's detections.
	k int
	// rate > 0 makes an open loop of Poisson arrivals per second; 0 a
	// closed loop of `clients` clients.
	rate float64
	// traceOps is the prefix the traced mode replays: ops per client of a
	// closed loop, arrivals of an open one.
	traceOps int
	// flags are cycleserved flags beyond the defaults; durable adds a
	// fresh -data-dir for every server.
	flags   []string
	durable bool
	gen     func(seed uint64) (*inputs, error)
	agent   func(in *inputs) agent
	// guard checks, from the server's counter deltas over a measured phase
	// of ops ops, that the phase had the workload's shape.
	guard func(st service.Stats, ops int) error
}

// missGuard is the shape of the miss workloads: no request hit the cache
// and nearly all computed (a rare coalesced wait is allowed).
func missGuard(st service.Stats, _ int) error {
	if st.Hits != 0 || float64(st.Computed) < 0.99*float64(st.Requests) {
		return fmt.Errorf("%d hits, %d of %d computed: requests did not miss", st.Hits, st.Computed, st.Requests)
	}
	return nil
}

// agent is the client side of a workload against one server instance.
type agent interface {
	// setup uploads the corpus and warms the server's verdict cache.
	setup(s *server) error
	// op performs op seq (client c's, in a closed loop) and checks its
	// responses; tl is non-nil on a traced pass.
	op(s *server, c, seq int, tl *traceLog) error
	// verify runs the checks deferred out of the measured phase and
	// returns how many ops failed them.
	verify() int
}

var workloads = []*workload{
	{
		name: "hit-corpus",
		why:  "steady-state reads of 4 warmed corpus graphs: transport and the cache hit path do all the work, the engine none",
		k:    2, traceOps: 5000,
		gen: func(seed uint64) (*inputs, error) {
			return makeInputs(seed, "hit", []graphSpec{
				{"planted:2000:4:1.5", derive(seed, 1), false},
				{"planted:2000:4:1.5", derive(seed, 2), false},
				{"highgirth:2000:3000:6", derive(seed, 3), true},
				{"pg:7", 0, true},
			}, true)
		},
		agent: func(in *inputs) agent {
			return newCorpusDetect(in, 2, "cache")
		},
		guard: func(st service.Stats, _ int) error {
			if saved := float64(st.Hits+st.Coalesced+st.Amplified) / float64(max(st.Requests, 1)); saved < 0.99 {
				return fmt.Errorf("saved ratio %.4f < 0.99: the corpus was not warm", saved)
			}
			return nil
		},
	},
	{
		name: "miss-even-inline",
		why:  "Algorithm 1 on 64 inline graphs with a fresh seed per request: decode, fingerprint, batch fusion and color-BFS all block",
		k:    2, traceOps: 600,
		gen: func(seed uint64) (*inputs, error) {
			specs := make([]graphSpec, 64)
			for i := range specs {
				specs[i] = graphSpec{"planted:1000:4:1.5", derive(seed, 100, uint64(i)), false}
			}
			return makeInputs(seed, "even", specs, false)
		},
		agent: func(in *inputs) agent { return &evenInline{in: in} },
		guard: missGuard,
	},
	{
		name: "miss-det-open",
		why:  "Poisson arrivals at 50/s of det k=3 over 16 corpus graphs with an 8-entry cache: every request recomputes, queueing shows",
		k:    3, rate: 50, traceOps: 1000,
		flags: []string{"-cache", "8"},
		gen: func(seed uint64) (*inputs, error) {
			specs := make([]graphSpec, 16)
			for i := range specs {
				specs[i] = graphSpec{"planted:2000:6:1.5", derive(seed, 200, uint64(i)), false}
			}
			return makeInputs(seed, "det", specs, true)
		},
		agent: func(in *inputs) agent {
			return newCorpusDetect(in, 3, "computed", "coalesced")
		},
		guard: missGuard,
	},
	{
		name: "mutate-durable",
		why:  "each op adds a C4-preserving edge to a durable 20000-node graph, then detects: WAL fsync, splice, resume, warm re-check",
		k:    2, traceOps: 600,
		durable: true,
		gen: func(seed uint64) (*inputs, error) {
			return makeInputs(seed, "mut", []graphSpec{
				{"highgirth:20000:30000:8", derive(seed, 300), true},
				{"highgirth:20000:30000:8", derive(seed, 301), true},
			}, true)
		},
		agent: newMutate,
		guard: func(st service.Stats, ops int) error {
			if st.Fallbacks != 0 || st.Mutations != int64(ops) {
				return fmt.Errorf("%d mutations with %d fallbacks for %d ops", st.Mutations, st.Fallbacks, ops)
			}
			return nil
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// graphSpec names one generated graph; free marks graphs known to hold no
// C_2k for the workload's k, on which any Found is a false positive.
type graphSpec struct {
	spec string
	seed uint64
	free bool
}

// inputs are a workload's generated graphs with everything the client
// checks responses against.
type inputs struct {
	seed   uint64
	graphs []*graph.Graph
	fps    []string          // client-computed fingerprints
	wire   []json.RawMessage // graphs as inline WireGraph JSON
	free   []bool
	names  []string // corpus names; nil when every request ships its graph
}

func makeInputs(seed uint64, prefix string, specs []graphSpec, corpus bool) (*inputs, error) {
	in := &inputs{seed: seed}
	for i, sp := range specs {
		g, err := graph.FromSpec(sp.spec, sp.seed)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", sp.spec, err)
		}
		wire, err := json.Marshal(service.WireGraph{N: g.NumNodes(), Edges: g.Edges()})
		if err != nil {
			return nil, err
		}
		in.graphs = append(in.graphs, g)
		in.fps = append(in.fps, g.Fingerprint().String())
		in.wire = append(in.wire, wire)
		in.free = append(in.free, sp.free)
		if corpus {
			in.names = append(in.names, fmt.Sprintf("%s-%d", prefix, i))
		}
	}
	return in, nil
}

// wireDetect is the body of POST /v1/detect, mirroring service.WireRequest
// with the graph pre-encoded; the server refuses unknown fields, so a drift
// between the two fails loudly.
type wireDetect struct {
	Algo       string          `json:"algo"`
	K          int             `json:"k"`
	Corpus     string          `json:"corpus,omitempty"`
	Graph      json.RawMessage `json:"graph,omitempty"`
	Seed       uint64          `json:"seed,omitempty"`
	Iterations int             `json:"iterations,omitempty"`
	Trace      bool            `json:"trace,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of the benchmark's own reach here
	}
	return b
}

// reply is a successful detection response.
type reply struct {
	body   []byte
	source string
	resp   *service.Response // parsed on traced calls or by parse
}

func (r *reply) parse() (*service.Response, error) {
	if r.resp == nil {
		r.resp = &service.Response{}
		if err := json.Unmarshal(r.body, r.resp); err != nil {
			return nil, fmt.Errorf("decoding detect response: %w", err)
		}
	}
	return r.resp, nil
}

// tracedBody is a response to a request with "trace":true.
type tracedBody struct {
	service.Response
	TraceNS map[string]int64 `json:"trace_ns"`
}

// detect posts one detection and, on a traced call, records it in tl with
// the server's stage split.
func (s *server) detect(body []byte, tl *traceLog) (*reply, error) {
	start := time.Now()
	status, payload, hdr, err := s.post("/v1/detect", body)
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("detect: status %d: %s", status, payload)
	}
	r := &reply{body: payload, source: hdr.Get("X-Evencycle-Source")}
	if tl != nil {
		var tb tracedBody
		if err := json.Unmarshal(payload, &tb); err != nil {
			return nil, fmt.Errorf("decoding traced response: %w", err)
		}
		if tb.TraceNS == nil {
			return nil, errors.New("traced response carries no trace_ns")
		}
		r.resp = &tb.Response
		batch, _ := strconv.Atoi(hdr.Get("X-Evencycle-Batch")) // absent on non-computed serves
		tl.calls = append(tl.calls, call{name: "http.request", start: start, end: end,
			stages: tb.TraceNS, batch: batch, rounds: int64(tb.Rounds), messages: tb.Messages})
	}
	return r, nil
}

// checkVerdict is the client's check of a detection response: it names
// the fingerprint the client computed, for the k asked, and its verdict
// passes checkWitness.
func checkVerdict(resp *service.Response, fp string, k int, g *graph.Graph, free bool) error {
	switch {
	case resp.Fingerprint != fp:
		return fmt.Errorf("response fingerprint %s, client computed %s", resp.Fingerprint, fp)
	case resp.K != k:
		return fmt.Errorf("response k=%d, asked %d", resp.K, k)
	case resp.Found && resp.FoundLen != 2*k:
		return fmt.Errorf("found_len %d, want %d", resp.FoundLen, 2*k)
	}
	return checkWitness(resp.Found, resp.Witness, g, k, free)
}

// checkWitness checks a verdict against the client's own copy g of the
// graph: a Found carries a simple cycle of length 2k in g, and a graph
// known to be C_2k-free never yields one (g may then be nil).
func checkWitness(found bool, witness []graph.NodeID, g *graph.Graph, k int, free bool) error {
	switch {
	case found && free:
		return fmt.Errorf("found a C%d in a graph that has none", 2*k)
	case found:
		if err := graph.IsSimpleCycle(g, witness, 2*k); err != nil {
			return fmt.Errorf("witness %v: %w", witness, err)
		}
	case len(witness) > 0:
		return errors.New("not-found verdict carries a witness")
	}
	return nil
}

func uploadCorpus(s *server, in *inputs) error {
	for i, name := range in.names {
		status, body, _, err := s.post("/v1/corpus/"+name, mustJSON(map[string]json.RawMessage{"graph": in.wire[i]}))
		if err != nil {
			return fmt.Errorf("creating corpus %s: %w", name, err)
		}
		var entry struct {
			Fingerprint string `json:"fingerprint"`
		}
		if status != http.StatusCreated || json.Unmarshal(body, &entry) != nil {
			return fmt.Errorf("creating corpus %s: status %d: %s", name, status, body)
		}
		if entry.Fingerprint != in.fps[i] {
			return fmt.Errorf("corpus %s: server fingerprint %s, client %s", name, entry.Fingerprint, in.fps[i])
		}
	}
	return nil
}

// corpusDetect sends det requests by corpus name (hit-corpus,
// miss-det-open), op seq to graph seq mod the corpus size, so the graphs
// take turns. Deterministic verdicts are pure functions of the graph, so
// every body must equal the graph's reference byte for byte however it
// was served.
type corpusDetect struct {
	in      *inputs
	k       int
	sources []string // the serve paths the workload's shape allows
	bodies  [][]byte // per graph: untraced request
	traced  [][]byte
	ref     [][]byte // per graph: reference response, checked at setup
	refResp []*service.Response
}

func newCorpusDetect(in *inputs, k int, sources ...string) *corpusDetect {
	d := &corpusDetect{in: in, k: k, sources: sources}
	for _, name := range in.names {
		d.bodies = append(d.bodies, mustJSON(wireDetect{Algo: "det", K: k, Corpus: name}))
		d.traced = append(d.traced, mustJSON(wireDetect{Algo: "det", K: k, Corpus: name, Trace: true}))
	}
	return d
}

func (d *corpusDetect) setup(s *server) error {
	if err := uploadCorpus(s, d.in); err != nil {
		return err
	}
	for i := range d.in.graphs {
		r, err := s.detect(d.bodies[i], nil)
		if err != nil {
			return err
		}
		resp, err := r.parse()
		if err != nil {
			return err
		}
		if err := checkVerdict(resp, d.in.fps[i], d.k, d.in.graphs[i], d.in.free[i]); err != nil {
			return fmt.Errorf("%s: %w", d.in.names[i], err)
		}
		d.ref = append(d.ref, r.body)
		d.refResp = append(d.refResp, resp)
	}
	return nil
}

func (d *corpusDetect) op(s *server, _, seq int, tl *traceLog) error {
	g := seq % len(d.in.graphs)
	body := d.bodies[g]
	if tl != nil {
		body = d.traced[g]
	}
	r, err := s.detect(body, tl)
	if err != nil {
		return err
	}
	if !slices.Contains(d.sources, r.source) {
		return fmt.Errorf("%s served from %q, want one of %v", d.in.names[g], r.source, d.sources)
	}
	if tl != nil {
		if !reflect.DeepEqual(r.resp, d.refResp[g]) {
			return fmt.Errorf("%s: traced verdict differs from the reference", d.in.names[g])
		}
	} else if !bytes.Equal(r.body, d.ref[g]) {
		return fmt.Errorf("%s: det body differs from the reference:\n  %s\n  %s", d.in.names[g], r.body, d.ref[g])
	}
	return nil
}

func (d *corpusDetect) verify() int { return 0 }

// evenInline ships one of its graphs inline with every Algorithm 1
// request, under a seed no other request uses, so every request misses
// the cache and computes.
type evenInline struct{ in *inputs }

const (
	evenIterations = 4
	opSeedTag      = 1 << 32 // request seeds of ops
	setupSeedTag   = 2 << 32 // request seeds of the setup warm-up
)

func (d *evenInline) body(g int, seed uint64, trace bool) []byte {
	return mustJSON(wireDetect{Algo: "even", K: 2, Graph: d.in.wire[g], Seed: seed,
		Iterations: evenIterations, Trace: trace})
}

func (d *evenInline) setup(s *server) error {
	for g := range d.in.graphs {
		if err := d.send(s, g, d.requestSeed(setupSeedTag, g), nil); err != nil {
			return err
		}
	}
	return nil
}

func (d *evenInline) op(s *server, _, seq int, tl *traceLog) error {
	return d.send(s, seq%len(d.in.graphs), d.requestSeed(opSeedTag, seq), tl)
}

// requestSeed is the seed of op seq (tag opSeedTag) or of the setup
// request for graph seq (tag setupSeedTag).
func (d *evenInline) requestSeed(tag uint64, seq int) uint64 {
	return derive(d.in.seed, tag, uint64(seq))
}

func (d *evenInline) send(s *server, g int, seed uint64, tl *traceLog) error {
	r, err := s.detect(d.body(g, seed, tl != nil), tl)
	if err != nil {
		return err
	}
	resp, err := r.parse()
	if err != nil {
		return err
	}
	if r.source != string(service.SourceComputed) {
		return fmt.Errorf("fresh-seed request served from %q", r.source)
	}
	if resp.Algo != service.AlgoEven || resp.Iterations < 1 || resp.Iterations > evenIterations {
		return fmt.Errorf("response algo %q iterations %d", resp.Algo, resp.Iterations)
	}
	return checkVerdict(resp, d.in.fps[g], 2, d.in.graphs[g], false)
}

func (d *evenInline) verify() int { return 0 }

// mutate gives each client one durable corpus graph. An op adds one edge
// chosen by progressive edge growth (PEG) — its endpoints at distance
// ≥ pegMinDist, so the graph stays C4-free — and then detects C4 on it.
// Setup and the detections are corpusDetect's, whose reference verdicts
// describe the graphs before the first mutation.
type mutate struct {
	*corpusDetect
	peg  []*pegSource
	prev []string // per client: last acknowledged fingerprint
	log  [][]ack
}

// ack is one acknowledged mutation, re-checked after the phase.
type ack struct {
	edge [2]graph.NodeID
	fp   string
}

func newMutate(in *inputs) agent {
	d := &mutate{corpusDetect: newCorpusDetect(in, 2, string(service.SourceCache))}
	for c := range in.names {
		d.peg = append(d.peg, newPEG(in.graphs[c], derive(in.seed, 400, uint64(c))))
		d.prev = append(d.prev, in.fps[c])
		d.log = append(d.log, nil)
	}
	return d
}

// mutationEntry is cycleserved's reply to POST /v1/corpus/{name}/edges.
type mutationEntry struct {
	Fingerprint       string `json:"fingerprint"`
	ParentFingerprint string `json:"parent_fingerprint"`
	Noop              bool   `json:"noop"`
	WarmStarts        int    `json:"warm_starts"`
	Fallbacks         int    `json:"fallbacks"`
}

func (d *mutate) op(s *server, c, _ int, tl *traceLog) error {
	name := d.in.names[c]
	e, ok := d.peg[c].next()
	if !ok {
		return fmt.Errorf("%s: no vertex pair left at distance ≥ %d", name, pegMinDist)
	}
	start := time.Now()
	status, body, _, err := s.post("/v1/corpus/"+name+"/edges", mustJSON(map[string][][2]graph.NodeID{"edges": {e}}))
	end := time.Now()
	if err != nil {
		return fmt.Errorf("mutate %s: %w", name, err)
	}
	var m mutationEntry
	if status != http.StatusOK || json.Unmarshal(body, &m) != nil {
		return fmt.Errorf("mutate %s: status %d: %s", name, status, body)
	}
	if tl != nil {
		tl.calls = append(tl.calls, call{name: "http.mutate", start: start, end: end})
	}
	switch {
	case m.Noop:
		return fmt.Errorf("mutate %s %v: a fresh edge was acknowledged as a no-op", name, e)
	case m.ParentFingerprint != d.prev[c]:
		return fmt.Errorf("mutate %s: lineage broken: parent %s, last acknowledged %s", name, m.ParentFingerprint, d.prev[c])
	case m.WarmStarts < 1 || m.Fallbacks != 0:
		return fmt.Errorf("mutate %s: warm_starts %d fallbacks %d, want a localized warm start", name, m.WarmStarts, m.Fallbacks)
	}
	d.prev[c] = m.Fingerprint
	d.log[c] = append(d.log[c], ack{e, m.Fingerprint})

	det := d.bodies[c]
	if tl != nil {
		det = d.traced[c]
	}
	r, err := s.detect(det, tl)
	if err != nil {
		return err
	}
	if !slices.Contains(d.sources, r.source) {
		return fmt.Errorf("detect after a mutation served from %q, want the warmed cache entry", r.source)
	}
	resp, err := r.parse()
	if err != nil {
		return err
	}
	return checkVerdict(resp, m.Fingerprint, 2, nil, true)
}

// verify replays every acknowledged edge on the client's own copy and
// compares fingerprints op by op, then checks the final graph against an
// independent rebuild from the full edge list.
func (d *mutate) verify() int {
	failed := make([]int, len(d.log))
	var wg sync.WaitGroup
	for c, acks := range d.log {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := d.in.graphs[c]
			edges := g.Edges()
			for i, a := range acks {
				next, err := g.WithEdges([][2]graph.NodeID{a.edge})
				if err != nil || next.Fingerprint().String() != a.fp {
					failed[c]++
					fmt.Fprintf(os.Stderr, "benchmark: %s op %d: acknowledged fingerprint %s does not match the client's graph\n",
						d.in.names[c], i, a.fp)
					continue
				}
				g = next
				edges = append(edges, a.edge)
			}
			if n := len(acks); n > 0 && graph.FromEdges(g.NumNodes(), edges).Fingerprint().String() != acks[n-1].fp {
				failed[c]++
				fmt.Fprintf(os.Stderr, "benchmark: %s: final fingerprint differs from a rebuild of all edges\n", d.in.names[c])
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, f := range failed {
		total += f
	}
	return total
}

// pegMinDist is the distance progressive edge growth keeps between a new
// edge's endpoints: a cycle through the new edge then has length at least
// pegMinDist+1, so no C4 appears.
const pegMinDist = 4

// pegSource draws PEG edges from a seeded stream over a growing copy of
// the graph; the same graph and seed give the same edge sequence.
type pegSource struct {
	adj  [][]int32
	rng  *rand.Rand
	seen []uint32 // BFS visit stamps
	mark uint32
	a, b []int32
}

func newPEG(g *graph.Graph, seed uint64) *pegSource {
	adj := make([][]int32, g.NumNodes())
	for v := range adj {
		adj[v] = slices.Clone(g.Neighbors(graph.NodeID(v)))
	}
	return &pegSource{adj: adj, rng: newRand(seed), seen: make([]uint32, len(adj))}
}

// pegAttempts bounds the search for a pair far enough apart: a graph of
// small diameter (pg:7's has diameter 3) has none.
const pegAttempts = 10000

// next returns the next edge, or false when the search found no pair at
// distance ≥ pegMinDist.
func (p *pegSource) next() ([2]graph.NodeID, bool) {
	n := int32(len(p.adj))
	for range pegAttempts {
		u, v := p.rng.Int32N(n), p.rng.Int32N(n)
		if u != v && !p.within(u, v, pegMinDist-1) {
			p.adj[u] = append(p.adj[u], v)
			p.adj[v] = append(p.adj[v], u)
			return [2]graph.NodeID{u, v}, true
		}
	}
	return [2]graph.NodeID{}, false
}

// within reports whether v lies within r hops of u.
func (p *pegSource) within(u, v int32, r int) bool {
	p.mark++
	p.seen[u] = p.mark
	cur, nxt := append(p.a[:0], u), p.b[:0]
	defer func() { p.a, p.b = cur, nxt }()
	for d := 0; d < r && len(cur) > 0; d++ {
		nxt = nxt[:0]
		for _, x := range cur {
			for _, y := range p.adj[x] {
				if y == v {
					return true
				}
				if p.seen[y] != p.mark {
					p.seen[y] = p.mark
					nxt = append(nxt, y)
				}
			}
		}
		cur, nxt = nxt, cur
	}
	return false
}
