package service

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/store"
)

func corpusTestGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]graph.NodeID, 0, 2*n)
	for i := 0; i < 2*n; i++ {
		edges = append(edges, [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))})
	}
	return graph.FromEdges(n, edges)
}

// TestNamedGraphImmutableSnapshot holds the NamedGraph contract under
// the race detector: a graph pointer obtained before a burst of corpus
// mutations stays readable, hashable and detectable throughout, and its
// fingerprint never moves — mutation is copy-on-write, never in place.
func TestNamedGraphImmutableSnapshot(t *testing.T) {
	s := New(Config{Slots: 2, BatchSize: 1})
	g0 := corpusTestGraph(60, 1)
	if err := s.CreateCorpus("g", g0); err != nil {
		t.Fatal(err)
	}
	snap, ok := s.NamedGraph("g")
	if !ok {
		t.Fatal("corpus graph missing")
	}
	fp0 := snap.Fingerprint()

	var wg sync.WaitGroup
	// Mutators: pile edges onto the name and occasionally replace the
	// graph wholesale.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				_, err := s.AddCorpusEdges("g", [][2]graph.NodeID{
					{graph.NodeID(rng.Intn(60)), graph.NodeID(rng.Intn(60))},
				})
				if err != nil {
					t.Errorf("AddCorpusEdges: %v", err)
					return
				}
			}
		}(w)
	}
	// Readers: the pre-mutation snapshot must stay bit-stable while the
	// name churns underneath it.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if fp := snap.Fingerprint(); fp != fp0 {
					t.Errorf("snapshot fingerprint moved: %s → %s", fp0, fp)
					return
				}
				edges := 0
				for u := graph.NodeID(0); int(u) < snap.NumNodes(); u++ {
					edges += len(snap.Neighbors(u))
				}
				if edges != 2*snap.NumEdges() {
					t.Errorf("snapshot adjacency inconsistent")
					return
				}
				if _, ok := s.NamedGraph("g"); !ok {
					t.Errorf("name vanished mid-churn")
					return
				}
			}
		}()
	}
	// A detection on the old snapshot, concurrent with the churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := s.Do(context.Background(), &Request{Graph: snap, Algo: AlgoDet, K: 2})
		if err != nil {
			t.Errorf("detection on snapshot: %v", err)
		}
	}()
	wg.Wait()

	if fp := snap.Fingerprint(); fp != fp0 {
		t.Fatalf("snapshot mutated in place: %s → %s", fp0, fp)
	}
	cur, _ := s.NamedGraph("g")
	if cur.NumEdges() <= g0.NumEdges() {
		t.Fatalf("mutations did not land: %d → %d edges", g0.NumEdges(), cur.NumEdges())
	}
}

// TestCorpusPersistence wires a Service to a real store and proves the
// acknowledged corpus round-trips through crash-style reopen, with
// RegisterGraph (memory-only) entries excluded and fingerprints intact.
func TestCorpusPersistence(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{CompactThreshold: -1, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Slots: 1, BatchSize: 1, Persist: st})

	durable := corpusTestGraph(40, 2)
	if err := s.CreateCorpus("durable", durable); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateCorpus("durable", durable); !errors.Is(err, ErrDuplicateCorpus) {
		t.Fatalf("duplicate CreateCorpus: err = %v, want ErrDuplicateCorpus", err)
	}
	if err := s.RegisterGraph("durable", durable); !errors.Is(err, ErrDuplicateCorpus) {
		t.Fatalf("RegisterGraph over existing: err = %v, want ErrDuplicateCorpus", err)
	}
	if err := s.RegisterGraph("ephemeral", corpusTestGraph(10, 3)); err != nil {
		t.Fatal(err)
	}
	mut, err := s.AddCorpusEdges("durable", [][2]graph.NodeID{{0, 39}, {1, 38}})
	if err != nil {
		t.Fatal(err)
	}
	ng := mut.Graph
	if mut.Noop || mut.Parent != durable.Fingerprint() || mut.Child != ng.Fingerprint() {
		t.Fatalf("mutation lineage wrong: %+v", mut)
	}
	if err := s.CreateCorpus("doomed", corpusTestGraph(12, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteCorpus("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteCorpus("doomed"); !errors.Is(err, ErrUnknownCorpus) {
		t.Fatalf("double delete: err = %v, want ErrUnknownCorpus", err)
	}
	if _, err := s.AddCorpusEdges("missing", nil); !errors.Is(err, ErrUnknownCorpus) {
		t.Fatalf("AddCorpusEdges on unknown: err = %v, want ErrUnknownCorpus", err)
	}
	st.Close()

	st2, err := store.Open(dir, store.Options{CompactThreshold: -1, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := New(Config{Slots: 1, BatchSize: 1, Persist: st2})
	if names := s2.GraphNames(); len(names) != 1 || names[0] != "durable" {
		t.Fatalf("recovered corpus = %v, want [durable] (memory-only entries must not persist)", names)
	}
	rg, ok := s2.NamedGraph("durable")
	if !ok {
		t.Fatal("durable graph missing after reopen")
	}
	if rg.Fingerprint() != ng.Fingerprint() {
		t.Fatalf("recovered fingerprint %s, want %s", rg.Fingerprint(), ng.Fingerprint())
	}

	// A poisoned store surfaces as ErrInternal, and the mutation is not
	// applied in memory either.
	st2.Close()
	if _, err := s2.AddCorpusEdges("durable", [][2]graph.NodeID{{2, 3}}); !errors.Is(err, ErrInternal) {
		t.Fatalf("mutation through closed store: err = %v, want ErrInternal", err)
	}
	if g, _ := s2.NamedGraph("durable"); g.Fingerprint() != ng.Fingerprint() {
		t.Fatal("failed durable mutation still mutated the in-memory corpus")
	}
}

// TestAddCorpusEdgesBoundsGrowth pins the inline-upload bound on corpus
// mutations: a batch may grow a graph's vertex set to at most 2·|E| +
// wireIsolatedSlack vertices, |E| counting the graph's edges and the
// batch's, in memory and through the durable store alike. A rejected
// batch leaves the corpus, and the journal, as they were.
func TestAddCorpusEdgesBoundsGrowth(t *testing.T) {
	triangle := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}})
	limit := graph.NodeID(2*(3+1) + wireIsolatedSlack) // one added edge
	for _, durable := range []bool{false, true} {
		cfg := Config{Slots: 1, BatchSize: 1}
		if durable {
			st, err := store.Open(t.TempDir(), store.Options{CompactThreshold: -1, Logf: func(string, ...any) {}})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			cfg.Persist = st
		}
		s := New(cfg)
		if err := s.CreateCorpus("tri", triangle); err != nil {
			t.Fatal(err)
		}
		for _, far := range []graph.NodeID{limit, 1 << 22, 1<<27 - 1} {
			if _, err := s.AddCorpusEdges("tri", [][2]graph.NodeID{{0, far}}); err == nil ||
				errors.Is(err, ErrInternal) || errors.Is(err, ErrUnknownCorpus) {
				t.Fatalf("durable=%v: edge [0,%d] on a triangle: err = %v, want a client error", durable, far, err)
			}
			if g, _ := s.NamedGraph("tri"); g != triangle {
				t.Fatalf("durable=%v: a rejected edge [0,%d] replaced the corpus graph", durable, far)
			}
		}
		mut, err := s.AddCorpusEdges("tri", [][2]graph.NodeID{{0, limit - 1}})
		if err != nil {
			t.Fatalf("durable=%v: edge at the bound: %v", durable, err)
		}
		if n := mut.Graph.NumNodes(); n != int(limit) {
			t.Fatalf("durable=%v: grown graph has %d vertices, want %d", durable, n, limit)
		}
	}
}
