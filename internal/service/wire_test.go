package service

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

// TestResolveInlineGraphValidation pins the hardening of the
// network-facing inline-graph path: hostile n/edge values must come back
// as errors, never reach the builder (which would panic or allocate
// unbounded memory).
func TestResolveInlineGraphValidation(t *testing.T) {
	svc := New(Config{})
	cases := []struct {
		name string
		wg   WireGraph
		want string
	}{
		{"negative-n", WireGraph{N: -1}, "declares -1 vertices"},
		{"huge-n", WireGraph{N: 1 << 30}, "vertices for 0 edges"},
		{"n-beyond-edges", WireGraph{N: 1 << 20, Edges: [][2]graph.NodeID{{0, 1}}}, "vertices for 1 edges"},
		{"negative-endpoint", WireGraph{N: 4, Edges: [][2]graph.NodeID{{-1, 0}}}, "out of range"},
		{"huge-endpoint", WireGraph{N: 4, Edges: [][2]graph.NodeID{{0, 1 << 30}}}, "out of range"},
		// One edge allows 2+slack vertices, IDs 0..1+slack; ID 2+slack
		// would build one vertex more.
		{"endpoint-at-bound", WireGraph{Edges: [][2]graph.NodeID{{0, 2 + wireIsolatedSlack}}}, "out of range"},
	}
	for _, tc := range cases {
		wg := tc.wg
		_, err := svc.Resolve(&WireRequest{Algo: "det", K: 2, Graph: &wg}, 8)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// A valid inline graph still resolves.
	req, err := svc.Resolve(&WireRequest{Algo: "det", K: 2, Graph: &WireGraph{
		N: 3, Edges: [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}},
	}}, 8)
	if err != nil || req.Graph.NumNodes() != 3 {
		t.Fatalf("valid inline graph: req=%v err=%v", req, err)
	}
	// The largest endpoint one edge may name builds exactly the bound.
	req, err = svc.Resolve(&WireRequest{Algo: "det", K: 2, Graph: &WireGraph{
		Edges: [][2]graph.NodeID{{0, 1 + wireIsolatedSlack}},
	}}, 8)
	if err != nil || req.Graph.NumNodes() != 2+wireIsolatedSlack {
		t.Fatalf("endpoint below bound: req=%v err=%v", req, err)
	}
}

// TestResponseWireJSONGolden pins the key names and key order of a
// detect response body: the det byte-identity replays and the benchmark's
// body comparisons depend on both. The verdict fields are promoted from
// congest.Verdict, which embeds congest.Costs.
func TestResponseWireJSONGolden(t *testing.T) {
	resp := Response{Algo: AlgoEven, K: 2, Fingerprint: "f00d", Verdict: congest.Verdict{
		Found: true, Witness: []graph.NodeID{0, 1, 2, 3}, FoundLen: 4, Iterations: 9,
		Costs: congest.Costs{Rounds: 5, Messages: 6, Bits: 7, MaxCongestion: 8, Overflowed: true},
	}}
	body, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"algo":"even","k":2,"fingerprint":"f00d","found":true,"witness":[0,1,2,3],"found_len":4,` +
		`"rounds":5,"messages":6,"bits":7,"max_congestion":8,"overflowed":true,"iterations":9}`
	if string(body) != want {
		t.Fatalf("response body\n got %s\nwant %s", body, want)
	}
}

// TestStatsWireJSONGolden pins the key names and key order of a
// /v1/stats body, with every field set to a distinct value so a key
// bound to the wrong field shows too. Dashboards, the cycleserved replay
// tests and the benchmark decode these keys.
func TestStatsWireJSONGolden(t *testing.T) {
	st := Stats{
		Requests: 1, Hits: 2, Coalesced: 3, Amplified: 4, Computed: 5,
		Errors: 6, Rejected: 7, Shed: 8, DeadlineExceeded: 9, Cancelled: 10, Panics: 11,
		Mutations: 13, NoopMutations: 14, WarmStarts: 15, WarmHits: 16,
		Fallbacks: 17, LastMutationParent: "p", LastMutationChild: "c", MeanSessionMS: 18.5,
		EngineSessions: 19, FusedSessions: 20, SoloSessions: 21, FusedRequests: 22,
		BatchesFormed: 23, MeanBatchSize: 24.5, MaxBatchSize: 25,
		CacheEntries: 26, InFlight: 27, Queued: 28, ArenaBytes: 29,
	}
	body, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"requests":1,"hits":2,"coalesced":3,"amplified":4,"computed":5,` +
		`"errors":6,"rejected":7,"shed":8,"deadline_exceeded":9,"cancelled":10,"panics":11,` +
		`"mutations":13,"noop_mutations":14,"warm_starts":15,"warm_hits":16,` +
		`"fallbacks":17,"last_mutation_parent":"p","last_mutation_child":"c","mean_session_ms":18.5,` +
		`"engine_sessions":19,"fused_sessions":20,"solo_sessions":21,"fused_requests":22,` +
		`"batches_formed":23,"mean_batch_size":24.5,"max_batch_size":25,` +
		`"cache_entries":26,"in_flight":27,"queued":28,"arena_bytes":29}`
	if string(body) != want {
		t.Fatalf("stats body\n got %s\nwant %s", body, want)
	}
}

// TestResolveWireRequestShapes covers the corpus/inline/neither arms and
// the default-budget fill.
func TestResolveWireRequestShapes(t *testing.T) {
	svc := New(Config{})
	g := graph.Gnm(20, 30, graph.NewRand(1))
	if err := svc.RegisterGraph("g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Resolve(&WireRequest{Algo: "even", K: 2}, 8); err == nil ||
		!strings.Contains(err.Error(), "neither corpus nor graph") {
		t.Fatalf("graphless request: %v", err)
	}
	if _, err := svc.Resolve(&WireRequest{Algo: "even", K: 2, Corpus: "nope"}, 8); err == nil ||
		!strings.Contains(err.Error(), "unknown corpus") {
		t.Fatalf("unknown corpus: %v", err)
	}
	if _, err := svc.Resolve(&WireRequest{Algo: "even", K: 2, Corpus: "g",
		Graph: &WireGraph{N: 1}}, 8); err == nil || !strings.Contains(err.Error(), "pick one") {
		t.Fatalf("both corpus and graph: %v", err)
	}
	req, err := svc.Resolve(&WireRequest{Algo: "even", K: 2, Corpus: "g"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if req.Iterations != 8 {
		t.Fatalf("default budget not applied: %d", req.Iterations)
	}
	if req.Graph != g {
		t.Fatal("corpus graph not resolved by reference")
	}
}

// TestAlgoAliasNormalization: aliases accepted by ParseAlgo must behave
// exactly like their canonical names all the way through Do — same cache
// key, det semantics (no budget required), canonical name in the
// response.
func TestAlgoAliasNormalization(t *testing.T) {
	svc := New(Config{})
	g := graph.Gnm(40, 80, graph.NewRand(2))
	resp, src, err := svc.Do(context.Background(), &Request{Graph: g, Algo: "deterministic", K: 2})
	if err != nil {
		t.Fatalf("alias request failed: %v", err)
	}
	if src != SourceComputed || resp.Algo != AlgoDet {
		t.Fatalf("alias request: src=%q algo=%q", src, resp.Algo)
	}
	// The canonical name must hit the same entry.
	_, src, err = svc.Do(context.Background(), &Request{Graph: g, Algo: AlgoDet, K: 2})
	if err != nil || src != SourceCache {
		t.Fatalf("canonical follow-up: src=%q err=%v", src, err)
	}
	// "classical" is AlgoEven and therefore needs a budget.
	if _, _, err := svc.Do(context.Background(), &Request{Graph: g, Algo: "classical", K: 2}); err == nil ||
		!strings.Contains(err.Error(), "trial budget") {
		t.Fatalf("classical alias without budget: %v", err)
	}
}
