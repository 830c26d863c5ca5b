package service

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// WireGraph is the inline edge-list form of a graph on the HTTP API.
// Its UnmarshalJSON (wiregraph.go) parses the canonical form without
// reflection and leaves every other input to encoding/json.
type WireGraph struct {
	N     int               `json:"n"`
	Edges [][2]graph.NodeID `json:"edges"`
}

// WireRequest is the JSON body of POST /v1/detect and POST /v1/jobs. The
// graph is given either inline (graph) or as a reference to a corpus
// instance registered at server startup (corpus) — exactly one of the
// two.
type WireRequest struct {
	Algo   string     `json:"algo"`
	K      int        `json:"k"`
	Corpus string     `json:"corpus,omitempty"`
	Graph  *WireGraph `json:"graph,omitempty"`
	// Seed, Iterations, Threshold, Eps, Pipelined mirror Request; a zero
	// Iterations takes the server's default budget.
	Seed       uint64  `json:"seed,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	Threshold  int     `json:"threshold,omitempty"`
	Eps        float64 `json:"eps,omitempty"`
	Pipelined  bool    `json:"pipelined,omitempty"`
	// DeadlineMS bounds the request's total service time in
	// milliseconds (queue wait included); 0 adopts the server default,
	// and the server's -max-deadline caps any value. Expiry returns 408;
	// a request shed because its deadline cannot cover the estimated
	// queue wait returns 429.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Trace opts this request into per-stage timing: the response gains
	// a trace_ns object and X-Evencycle-Stage-* headers (the verdict
	// fields are unchanged). Works on any server, observed or not.
	Trace bool `json:"trace,omitempty"`
}

// wireIsolatedSlack is the flat number of declared-but-untouched vertices
// an inline graph may carry beyond its edge set. The CSR allocates O(n)
// up front, so n must be bounded by what the request body actually ships
// — {"n":134000000,"edges":[]} is ~30 bytes asking for ~1GB of slabs,
// allocated on the handler goroutine before the admission gate is even
// consulted. Isolated vertices are irrelevant to cycle detection, so the
// bound n ≤ 2·|edges| + slack costs legitimate clients nothing.
const wireIsolatedSlack = 4096

// validate rejects inline graphs that would panic or exhaust the
// builder: negative n or endpoints, or a vertex count out of proportion
// to the shipped edge list (see wireIsolatedSlack). Endpoints beyond n
// just grow the vertex set, as in the file format, up to the same bound:
// an endpoint must be below it, so the built graph never exceeds it.
func (wg *WireGraph) validate() error {
	maxNodes := 2*len(wg.Edges) + wireIsolatedSlack
	if wg.N < 0 || wg.N > maxNodes {
		return fmt.Errorf("service: inline graph declares %d vertices for %d edges (max %d — ship edges for the vertices you use)",
			wg.N, len(wg.Edges), maxNodes)
	}
	for i, e := range wg.Edges {
		if e[0] < 0 || e[1] < 0 || int(e[0]) >= maxNodes || int(e[1]) >= maxNodes {
			return fmt.Errorf("service: inline graph edge %d has endpoint out of range: [%d,%d]", i, e[0], e[1])
		}
	}
	return nil
}

// Build validates the wire graph and builds the canonical immutable CSR
// from it — the one constructor every inline graph on the API goes
// through, whether for a detection request or a durable corpus create
// (which is what keeps recovered fingerprints byte-equal to the ones
// acknowledged at create time).
func (wg *WireGraph) Build() (*graph.Graph, error) {
	if err := wg.validate(); err != nil {
		return nil, err
	}
	return graph.FromEdges(wg.N, wg.Edges), nil
}

// Resolve converts a wire request into a service Request: the algo name
// is parsed, the graph is resolved against the corpus registry or built
// from the inline edge list, and a zero trial budget takes
// defaultIterations.
func (s *Service) Resolve(wr *WireRequest, defaultIterations int) (*Request, error) {
	algo, err := ParseAlgo(wr.Algo)
	if err != nil {
		return nil, err
	}
	var g *graph.Graph
	switch {
	case wr.Corpus != "" && wr.Graph != nil:
		return nil, fmt.Errorf("service: request names corpus %q and ships an inline graph — pick one", wr.Corpus)
	case wr.Corpus != "":
		var ok bool
		if g, ok = s.NamedGraph(wr.Corpus); !ok {
			return nil, fmt.Errorf("%w: %q (see /v1/corpus)", ErrUnknownCorpus, wr.Corpus)
		}
	case wr.Graph != nil:
		if g, err = wr.Graph.Build(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("service: request has neither corpus nor graph")
	}
	iters := wr.Iterations
	if iters == 0 && algo.randomized() {
		iters = defaultIterations
	}
	if wr.DeadlineMS < 0 {
		return nil, fmt.Errorf("service: negative deadline_ms %d", wr.DeadlineMS)
	}
	req := &Request{
		Graph:      g,
		Algo:       algo,
		K:          wr.K,
		Seed:       wr.Seed,
		Iterations: iters,
		Threshold:  wr.Threshold,
		Eps:        wr.Eps,
		Pipelined:  wr.Pipelined,
		Deadline:   time.Duration(wr.DeadlineMS) * time.Millisecond,
	}
	if wr.Trace {
		req.Trace = &obs.Trace{}
	}
	return req, nil
}
