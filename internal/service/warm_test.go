package service

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/graph"
	"repro/internal/store"
)

// openPathGraph builds the planted-C_2k parent: an open 2k-path (one edge
// short of an even cycle) plus a far path component that keeps the
// localization ball a strict subset of the graph.
func openPathGraph(n int, ids ...graph.NodeID) (*graph.Graph, [2]graph.NodeID) {
	var edges [][2]graph.NodeID
	for i := 1; i < len(ids); i++ {
		edges = append(edges, [2]graph.NodeID{ids[i-1], ids[i]})
	}
	for v := graph.NodeID(20); v < graph.NodeID(n-1); v++ {
		edges = append(edges, [2]graph.NodeID{v, v + 1})
	}
	closing := [2]graph.NodeID{ids[len(ids)-1], ids[0]}
	return graph.FromEdges(n, edges), closing
}

// TestWarmStartVerdictFlip is the service half of the verdict-flip table:
// a cached NotFound on the parent, then the closing edge of a planted C_4
// arrives — the mutation must warm the child fingerprint with a Found
// verdict (localized recheck, no fallback), and the next request must be
// a cache hit carrying a verified witness.
func TestWarmStartVerdictFlip(t *testing.T) {
	s := New(Config{Slots: 1, BatchSize: 1})
	parent, closing := openPathGraph(64, 0, 1, 2, 3)
	if err := s.CreateCorpus("g", parent); err != nil {
		t.Fatal(err)
	}
	resp, src, err := s.Do(context.Background(), &Request{Graph: parent, Algo: AlgoDet, K: 2})
	if err != nil || resp.Found || src != SourceComputed {
		t.Fatalf("parent detection: resp=%+v src=%s err=%v (want computed NotFound)", resp, src, err)
	}

	mut, err := s.AddCorpusEdges("g", [][2]graph.NodeID{closing})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Noop || mut.WarmStarts != 1 || mut.Fallbacks != 0 {
		t.Fatalf("mutation = %+v, want 1 warm start and 0 fallbacks", mut)
	}
	if mut.Parent != parent.Fingerprint() || mut.Child != mut.Graph.Fingerprint() {
		t.Fatalf("lineage edge wrong: %+v", mut)
	}

	child, _ := s.NamedGraph("g")
	resp, src, err = s.Do(context.Background(), &Request{Graph: child, Algo: AlgoDet, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceCache {
		t.Fatalf("post-mutation detection source = %s, want cache (warmed)", src)
	}
	if !resp.Found {
		t.Fatal("closing edge must flip the verdict to Found")
	}
	if err := graph.IsSimpleCycle(child, resp.Witness, 4); err != nil {
		t.Fatalf("warm witness invalid: %v", err)
	}
	if resp.Fingerprint != child.Fingerprint().String() {
		t.Fatalf("warm response fingerprint %s, want %s", resp.Fingerprint, child.Fingerprint())
	}

	st := s.Stats()
	if st.Mutations != 1 || st.WarmStarts != 1 || st.WarmHits != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats = mutations:%d warm_starts:%d warm_hits:%d fallbacks:%d, want 1/1/1/0",
			st.Mutations, st.WarmStarts, st.WarmHits, st.Fallbacks)
	}
	if st.LastMutationParent != mut.Parent.String() || st.LastMutationChild != mut.Child.String() {
		t.Fatalf("stats lineage %s→%s, want %s→%s",
			st.LastMutationParent, st.LastMutationChild, mut.Parent, mut.Child)
	}
}

// TestWarmStartFarEdge: the adversarial NotFound-stays-NotFound case. The
// added edge is far from anything that could close a short cycle, so the
// warm path runs only the localized recheck and seeds a NotFound entry —
// warm_starts pinned to 1, fallbacks to 0, and the follow-up request hits.
func TestWarmStartFarEdge(t *testing.T) {
	s := New(Config{Slots: 1, BatchSize: 1})
	parent, _ := openPathGraph(80, 0, 1, 2, 3)
	if err := s.CreateCorpus("g", parent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Do(context.Background(), &Request{Graph: parent, Algo: AlgoDet, K: 2}); err != nil {
		t.Fatal(err)
	}
	mut, err := s.AddCorpusEdges("g", [][2]graph.NodeID{{60, 62}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.WarmStarts != 1 || mut.Fallbacks != 0 {
		t.Fatalf("mutation = %+v, want warm_starts 1, fallbacks 0", mut)
	}
	resp, src, err := s.Do(context.Background(), &Request{Graph: mut.Graph, Algo: AlgoDet, K: 2})
	if err != nil || src != SourceCache || resp.Found {
		t.Fatalf("resp=%+v src=%s err=%v, want cached NotFound", resp, src, err)
	}
}

// TestWarmStartFallback pins the forced-fallback case: on a small-diameter
// graph the radius-2k ball covers everything, the localized recheck
// punts, and the warm path runs a full detection instead. The cached
// child entry must then be byte-identical to what a cold service computes
// for the same graph — the fallback is the cold path, just run early.
func TestWarmStartFallback(t *testing.T) {
	s := New(Config{Slots: 1, BatchSize: 1})
	var edges [][2]graph.NodeID
	for v := graph.NodeID(1); v < 6; v++ {
		edges = append(edges, [2]graph.NodeID{0, v})
	}
	parent := graph.FromEdges(6, edges)
	if err := s.CreateCorpus("g", parent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Do(context.Background(), &Request{Graph: parent, Algo: AlgoDet, K: 2}); err != nil {
		t.Fatal(err)
	}
	mut, err := s.AddCorpusEdges("g", [][2]graph.NodeID{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.WarmStarts != 1 || mut.Fallbacks != 1 {
		t.Fatalf("mutation = %+v, want warm_starts 1, fallbacks 1", mut)
	}
	resp, src, err := s.Do(context.Background(), &Request{Graph: mut.Graph, Algo: AlgoDet, K: 2})
	if err != nil || src != SourceCache {
		t.Fatalf("src=%s err=%v, want cached", src, err)
	}
	cold := New(Config{Slots: 1, BatchSize: 1})
	coldResp, _, err := cold.Do(context.Background(), &Request{Graph: mut.Graph, Algo: AlgoDet, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(resp)
	want, _ := json.Marshal(coldResp)
	if string(got) != string(want) {
		t.Fatalf("fallback-warmed response diverges from cold compute:\n got %s\nwant %s", got, want)
	}
	// The post-fallback hit above is served from the warmed entry, so the
	// fallback must keep the entry's warm mark.
	if st := s.Stats(); st.Fallbacks != 1 || st.WarmHits != 1 {
		t.Fatalf("stats fallbacks=%d warm_hits=%d, want 1/1", st.Fallbacks, st.WarmHits)
	}
}

// TestWarmFallbackKeepsRequestEntry: a request for the child key that
// completes while the fallback detection runs installs its own verdict,
// and the fallback must not overwrite it (nor mark it warm).
func TestWarmFallbackKeepsRequestEntry(t *testing.T) {
	s := New(Config{Slots: 2, BatchSize: 1})
	var edges [][2]graph.NodeID
	for v := graph.NodeID(1); v < 6; v++ {
		edges = append(edges, [2]graph.NodeID{0, v})
	}
	parent := graph.FromEdges(6, edges)
	added := [][2]graph.NodeID{{1, 2}}
	child, err := parent.WithEdges(added)
	if err != nil {
		t.Fatal(err)
	}
	var childCalls int
	var reqResp *Response
	s.computeHook = func(req *Request, fp graph.Fingerprint, prior *entry) (*Response, bool, error) {
		resp := &Response{Algo: req.Algo, K: req.K, Fingerprint: fp.String()}
		if fp != child.Fingerprint() {
			return resp, false, nil
		}
		childCalls++
		if childCalls == 1 {
			// The fallback is running: a request for the same key
			// computes and caches its verdict before the fallback ends.
			got, src, err := s.Do(context.Background(), &Request{Graph: req.Graph, Algo: AlgoDet, K: req.K})
			if err != nil || src != SourceComputed {
				t.Errorf("request during fallback: src=%s err=%v, want computed", src, err)
			}
			reqResp = got
			resp.Rounds = 2 // tells the fallback's verdict apart
		}
		return resp, false, nil
	}
	if err := s.CreateCorpus("g", parent); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Do(context.Background(), &Request{Graph: parent, Algo: AlgoDet, K: 2}); err != nil {
		t.Fatal(err)
	}
	mut, err := s.AddCorpusEdges("g", added)
	if err != nil {
		t.Fatal(err)
	}
	if mut.Fallbacks != 1 || childCalls != 2 {
		t.Fatalf("mutation = %+v with %d child computes, want one fallback and two computes", mut, childCalls)
	}
	resp, src, err := s.Do(context.Background(), &Request{Graph: child, Algo: AlgoDet, K: 2})
	if err != nil || src != SourceCache {
		t.Fatalf("src=%s err=%v, want cached", src, err)
	}
	if resp != reqResp {
		t.Fatalf("cached child verdict %+v, want the request's %+v", resp, reqResp)
	}
	if st := s.Stats(); st.WarmHits != 0 {
		t.Fatalf("warm_hits = %d, want 0: the request's entry is not warm work", st.WarmHits)
	}
}

// TestWarmStartCarriesFound: a cached Found survives any edge addition
// (edges are only ever added), so the warm path re-keys it without any
// detector work, witness intact and re-verified.
func TestWarmStartCarriesFound(t *testing.T) {
	s := New(Config{Slots: 1, BatchSize: 1})
	parent, closing := openPathGraph(64, 0, 1, 2, 3)
	withCycle, err := parent.WithEdges([][2]graph.NodeID{closing})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateCorpus("g", withCycle); err != nil {
		t.Fatal(err)
	}
	resp, _, err := s.Do(context.Background(), &Request{Graph: withCycle, Algo: AlgoDet, K: 2})
	if err != nil || !resp.Found {
		t.Fatalf("parent should be Found: %+v err=%v", resp, err)
	}
	mut, err := s.AddCorpusEdges("g", [][2]graph.NodeID{{40, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.WarmStarts != 1 || mut.Fallbacks != 0 {
		t.Fatalf("mutation = %+v, want carried Found, no fallback", mut)
	}
	got, src, err := s.Do(context.Background(), &Request{Graph: mut.Graph, Algo: AlgoDet, K: 2})
	if err != nil || src != SourceCache || !got.Found {
		t.Fatalf("resp=%+v src=%s err=%v, want cached Found", got, src, err)
	}
	if err := graph.IsSimpleCycle(mut.Graph, got.Witness, 4); err != nil {
		t.Fatalf("carried witness invalid in child: %v", err)
	}
}

// TestNoopMutationSkipsEverything pins the no-op contract end to end:
// all-duplicate batches return the IDENTICAL graph pointer, journal
// nothing (the WAL does not grow), warm nothing, and count as
// noop_mutations — repeatedly.
func TestNoopMutationSkipsEverything(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{CompactThreshold: -1, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Slots: 1, BatchSize: 1, Persist: st})
	g := graph.FromEdges(8, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}})
	if err := s.CreateCorpus("g", g); err != nil {
		t.Fatal(err)
	}
	walBefore := st.Stats().WALBytes
	appendedBefore := st.Stats().Appended
	for i := 0; i < 5; i++ {
		mut, err := s.AddCorpusEdges("g", [][2]graph.NodeID{{0, 1}, {2, 1}, {3, 3}})
		if err != nil {
			t.Fatal(err)
		}
		if !mut.Noop {
			t.Fatalf("iteration %d: all-duplicate batch not a no-op: %+v", i, mut)
		}
		if mut.Graph != g {
			t.Fatalf("iteration %d: no-op returned a different graph pointer", i)
		}
		if mut.Parent != mut.Child || mut.Parent != g.Fingerprint() {
			t.Fatalf("iteration %d: no-op lineage should be the identity: %+v", i, mut)
		}
	}
	after := st.Stats()
	if after.WALBytes != walBefore || after.Appended != appendedBefore {
		t.Fatalf("no-op mutations grew the WAL: %d→%d bytes, %d→%d records",
			walBefore, after.WALBytes, appendedBefore, after.Appended)
	}
	stats := s.Stats()
	if stats.NoopMutations != 5 || stats.Mutations != 0 {
		t.Fatalf("stats noop_mutations=%d mutations=%d, want 5/0", stats.NoopMutations, stats.Mutations)
	}
	if cur, _ := s.NamedGraph("g"); cur != g {
		t.Fatal("corpus pointer moved under no-op mutations")
	}
}

// TestWarmStartNoCachedParent: a mutation with nothing cached for the
// parent has nothing to warm — no detector runs, counters stay zero.
func TestWarmStartNoCachedParent(t *testing.T) {
	s := New(Config{Slots: 1, BatchSize: 1})
	parent, closing := openPathGraph(64, 0, 1, 2, 3)
	if err := s.CreateCorpus("g", parent); err != nil {
		t.Fatal(err)
	}
	mut, err := s.AddCorpusEdges("g", [][2]graph.NodeID{closing})
	if err != nil {
		t.Fatal(err)
	}
	if mut.WarmStarts != 0 || mut.Fallbacks != 0 {
		t.Fatalf("mutation = %+v, want nothing warmed", mut)
	}
	if st := s.Stats(); st.EngineSessions != 0 {
		t.Fatalf("engine sessions = %d, want 0 (no cached parent, no warm work)", st.EngineSessions)
	}
}

// TestWarmStartWithThresholdIsSound is the floor under the warm-start
// item for requests that set a threshold: over random Gnm parents, det
// with τ ∈ 1..6 and k ∈ {2,3}, and 1–3 added edges per mutation, every
// warmed Found carries a simple 2k-cycle of the child graph its
// fingerprint names, and no warmed NotFound meets a Found from a fresh
// service. It asserts no equality: a carried or localized Found can
// still meet a cold NotFound (overflow differs between the runs).
func TestWarmStartWithThresholdIsSound(t *testing.T) {
	cold := New(Config{Slots: 1})
	const cases = 400
	warmed, found := 0, 0
	for seed := uint64(0); seed < cases; seed++ {
		rng := graph.NewRand(seed)
		n := 12 + rng.IntN(60)
		parent := graph.Gnm(n, n+rng.IntN(n), rng)
		k, tau := 2+rng.IntN(2), 1+rng.IntN(6)
		var added [][2]graph.NodeID
		for len(added) < 1+int(seed%3) {
			u, v := graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))
			if u != v && !parent.HasEdge(u, v) {
				added = append(added, [2]graph.NodeID{u, v})
			}
		}
		s := New(Config{Slots: 1, BatchSize: 1})
		if err := s.CreateCorpus("g", parent); err != nil {
			t.Fatal(err)
		}
		req := Request{Graph: parent, Algo: AlgoDet, K: k, Threshold: tau}
		if _, _, err := s.Do(context.Background(), &req); err != nil {
			t.Fatalf("seed %d: parent: %v", seed, err)
		}
		mut, err := s.AddCorpusEdges("g", added)
		if err != nil {
			t.Fatalf("seed %d: mutation: %v", seed, err)
		}
		if mut.WarmStarts == 0 {
			continue
		}
		warmed++
		req.Graph = mut.Graph
		got, src, err := s.Do(context.Background(), &req)
		if err != nil || src != SourceCache {
			t.Fatalf("seed %d: warmed child served from %s (err %v), want the cache", seed, src, err)
		}
		if got.Fingerprint != mut.Child.String() || mut.Child != mut.Graph.Fingerprint() {
			t.Fatalf("seed %d: warm entry names %s, child is %s", seed, got.Fingerprint, mut.Graph.Fingerprint())
		}
		if got.Found {
			found++
			if err := graph.IsSimpleCycle(mut.Graph, got.Witness, 2*k); err != nil {
				t.Fatalf("seed %d (n=%d k=%d τ=%d): warmed witness invalid in the child: %v", seed, n, k, tau, err)
			}
			continue
		}
		fresh, _, err := cold.Do(context.Background(), &req)
		if err != nil {
			t.Fatalf("seed %d: cold child: %v", seed, err)
		}
		if fresh.Found {
			t.Fatalf("seed %d (n=%d k=%d τ=%d, added %v): warmed NotFound, fresh service Found", seed, n, k, tau, added)
		}
	}
	t.Logf("%d of %d mutations warmed a verdict, %d of them Found", warmed, cases, found)
	if warmed < cases/2 || found == 0 || found == warmed {
		t.Fatalf("%d warmed, %d Found: the table lost its teeth", warmed, found)
	}
}
