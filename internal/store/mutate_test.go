package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// writeJournal hand-crafts a corpus.wal from raw records — the only way
// to exercise replay of record shapes the current write path no longer
// produces (legacy op=2) or would never produce (tampered lineage).
func writeJournal(t *testing.T, dir string, recs ...*record) {
	t.Helper()
	buf := append([]byte(nil), walMagic[:]...)
	for _, r := range recs {
		buf = appendFrame(buf, r.encode(nil))
	}
	if err := os.WriteFile(filepath.Join(dir, walName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAddEdgesFPRecordRoundtrip pins the op=4 wire shape: the parent
// fingerprint survives encode/decode bit-for-bit and size() prices the
// 16 extra bytes exactly.
func TestAddEdgesFPRecordRoundtrip(t *testing.T) {
	parent := testGraph(30, 3, 7).Fingerprint()
	r := &record{
		seq:    42,
		op:     opAddEdgesFP,
		name:   "g",
		edges:  [][2]graph.NodeID{{0, 29}, {5, 17}},
		parent: parent,
	}
	payload := r.encode(nil)
	if len(payload) != r.size() {
		t.Fatalf("size() = %d, encoded %d bytes", r.size(), len(payload))
	}
	plain := &record{seq: 42, op: opAddEdges, name: "g", edges: r.edges}
	if r.size() != plain.size()+16 {
		t.Fatalf("op=4 record should cost exactly 16 bytes over op=2: %d vs %d", r.size(), plain.size())
	}
	got, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.seq != r.seq || got.op != r.op || got.name != r.name || got.parent != parent {
		t.Fatalf("roundtrip diverged: %+v", got)
	}
	if len(got.edges) != 2 || got.edges[0] != r.edges[0] || got.edges[1] != r.edges[1] {
		t.Fatalf("edges diverged: %v", got.edges)
	}
	// A truncated fingerprint is corruption, not a short read to pad.
	if _, err := decodeRecord(payload[:10]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated record: err = %v, want ErrCorrupt", err)
	}
}

// TestReplayVerifiesParentFingerprint: an op=4 record whose parent
// fingerprint disagrees with the recovered graph means the on-disk chain
// diverges from the acknowledged one — recovery must refuse with
// ErrCorrupt rather than rebuild a different history.
func TestReplayVerifiesParentFingerprint(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(20, 3, 1)
	bad := g.Fingerprint()
	bad[0] ^= 1 // one bit off the true parent
	writeJournal(t, dir,
		&record{seq: 1, op: opCreate, name: "g", n: g.NumNodes(), edges: g.Edges()},
		&record{seq: 2, op: opAddEdgesFP, name: "g", edges: [][2]graph.NodeID{{0, 19}}, parent: bad},
	)
	if _, err := Open(dir, quietOpts(nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered parent fingerprint: err = %v, want ErrCorrupt", err)
	}
}

// TestLegacyAddEdgesReplay: journals written by earlier builds carry
// op=2 records with no lineage — they must keep replaying (same
// copy-on-write construction, byte-equal fingerprints), just without a
// parent fingerprint to verify.
func TestLegacyAddEdgesReplay(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(20, 3, 2)
	extra := [][2]graph.NodeID{{0, 19}, {1, 18}}
	writeJournal(t, dir,
		&record{seq: 1, op: opCreate, name: "g", n: g.NumNodes(), edges: g.Edges()},
		&record{seq: 2, op: opAddEdges, name: "g", edges: extra},
	)
	st, err := Open(dir, quietOpts(nil))
	if err != nil {
		t.Fatalf("legacy journal failed to replay: %v", err)
	}
	defer st.Close()
	want, err := g.WithEdges(extra)
	if err != nil {
		t.Fatal(err)
	}
	checkState(t, st, map[string]*graph.Graph{"g": want})
}

// TestNoopAddEdgesSkipsJournal pins the write-side half of the no-op
// contract: an all-duplicate batch returns the identical pointer and
// appends nothing — acknowledged-but-unjournaled state cannot exist
// because there is no state change to acknowledge.
func TestNoopAddEdgesSkipsJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, quietOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := graph.FromEdges(10, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}})
	if err := st.Create("g", g); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	for i := 0; i < 3; i++ {
		ng, err := st.AddEdges("g", [][2]graph.NodeID{{1, 0}, {2, 3}, {4, 4}})
		if err != nil {
			t.Fatal(err)
		}
		if ng != g {
			t.Fatalf("iteration %d: no-op AddEdges returned a new graph value", i)
		}
	}
	after := st.Stats()
	if after.WALBytes != before.WALBytes || after.Appended != before.Appended {
		t.Fatalf("no-op AddEdges grew the journal: %d→%d bytes, %d→%d appends",
			before.WALBytes, after.WALBytes, before.Appended, after.Appended)
	}
}

// TestAddEdgesFPCrashRecovery: the acknowledged op=4 chain replays
// bit-for-bit — three chained mutations, then a reopen must verify every
// parent link and land on the same fingerprint.
func TestAddEdgesFPCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, quietOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(40, 3, 4)
	if err := st.Create("g", g); err != nil {
		t.Fatal(err)
	}
	cur := g
	for i := 0; i < 3; i++ {
		cur, err = st.AddEdges("g", [][2]graph.NodeID{
			{graph.NodeID(i), graph.NodeID(39 - i)},
			{graph.NodeID(i + 10), graph.NodeID(i + 20)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st.Close() // crash-equivalent for durability: every append was synced

	st2, err := Open(dir, quietOpts(nil))
	if err != nil {
		t.Fatalf("reopen after chained op=4 mutations: %v", err)
	}
	defer st2.Close()
	checkState(t, st2, map[string]*graph.Graph{"g": cur})
	if st2.Stats().Recovered != 4 {
		t.Fatalf("recovered %d records, want 4", st2.Stats().Recovered)
	}
}

// TestSnapshotSizeCounter pins the per-graph edge-byte counter that
// AddEdges prices snapshots with: the snapshot size it gives equals the
// size of the snapshot record compaction would write, after random
// appends (duplicates, self-loops, edges already present and edges that
// grow the vertex set included), after compaction, and after reopen.
func TestSnapshotSizeCounter(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, quietOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	check := func(st *Store, when string) {
		t.Helper()
		for _, name := range st.Names() {
			g, _ := st.Get(name)
			want := (&record{op: opCreate, name: name, n: g.NumNodes(), edges: g.Edges()}).size()
			if got := snapshotSize(name, g, st.edgeBytes[name]); got != want {
				t.Fatalf("%s: %q prices its snapshot at %d bytes, the record is %d", when, name, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i, name := range []string{"a", "b"} {
		if err := st.Create(name, testGraph(100, 3, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	check(st, "after create")
	for i := range 200 {
		name := []string{"a", "b"}[i%2]
		g, _ := st.Get(name)
		n := g.NumNodes()
		batch := make([][2]graph.NodeID, 1+rng.Intn(4))
		for j := range batch {
			// Mostly endpoints inside the graph, so duplicates and
			// present edges are common; now and then one past it.
			u, v := rng.Intn(n), rng.Intn(n+n/20)
			if j > 0 && rng.Intn(3) == 0 {
				batch[j] = batch[j-1] // a duplicate within the batch
				continue
			}
			batch[j] = [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)}
		}
		if _, err := st.AddEdges(name, batch); err != nil {
			t.Fatal(err)
		}
		check(st, fmt.Sprintf("after append %d", i))
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	check(st, "after compaction")
	if _, err := st.AddEdges("a", [][2]graph.NodeID{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	check(st, "after an append past compaction")
	st.Close()
	st2, err := Open(dir, quietOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	check(st2, "after reopen")
}
