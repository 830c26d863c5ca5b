package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/store"
)

// newTestServer builds a server over the real routing table; dir != ""
// backs the corpus with a durable store (returned for reopen tests).
func newTestServer(t *testing.T, dir string) (*server, *store.Store) {
	t.Helper()
	var persist *store.Store
	if dir != "" {
		var err error
		persist, err = store.Open(dir, store.Options{CompactThreshold: -1, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { persist.Close() })
	}
	svc := service.New(service.Config{Slots: 2, BatchSize: 1, Persist: persist})
	return &server{svc: svc, store: persist, defaultIterations: 4}, persist
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestCorpusMutationEndpoints(t *testing.T) {
	srv, _ := newTestServer(t, "")
	h := srv.routes()

	steps := []struct {
		name, method, path, body string
		want                     int
	}{
		{"create-inline", "POST", "/v1/corpus/ring", `{"graph":{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}}`, 201},
		{"create-duplicate", "POST", "/v1/corpus/ring", `{"graph":{"n":3,"edges":[[0,1]]}}`, 409},
		{"create-from-spec", "POST", "/v1/corpus/gen", `{"spec":"planted:64:3:1.5","seed":7}`, 201},
		{"create-bad-spec", "POST", "/v1/corpus/bad", `{"spec":"nonsense:1:2"}`, 400},
		{"create-empty-body", "POST", "/v1/corpus/empty", `{}`, 400},
		{"create-both-forms", "POST", "/v1/corpus/both", `{"graph":{"n":2,"edges":[[0,1]]},"spec":"planted:64:3:1.5"}`, 400},
		{"create-unknown-field", "POST", "/v1/corpus/junk", `{"grap":{"n":2}}`, 400},
		{"create-malformed-json", "POST", "/v1/corpus/junk", `{"graph":`, 400},
		{"create-absurd-n", "POST", "/v1/corpus/huge", `{"graph":{"n":134000000,"edges":[[0,1]]}}`, 400},
		{"create-file-spec", "POST", "/v1/corpus/lfi", `{"spec":"file:/etc/hostname"}`, 400},
		{"create-oversize-spec", "POST", "/v1/corpus/big", `{"spec":"gnm:20000000:60000000"}`, 400},
		{"create-overflow-spec", "POST", "/v1/corpus/wrap", `{"spec":"pg:4000000000"}`, 400},
		{"create-negative-spec", "POST", "/v1/corpus/neg", `{"spec":"gnm:-5:-10"}`, 400},
		{"create-long-name", "POST", "/v1/corpus/" + strings.Repeat("n", 513), `{"graph":{"n":2,"edges":[[0,1]]}}`, 400},
		{"add-edges", "POST", "/v1/corpus/ring/edges", `{"edges":[[0,3],[1,4]]}`, 200},
		{"add-edges-unknown", "POST", "/v1/corpus/ghost/edges", `{"edges":[[0,1]]}`, 404},
		{"add-edges-empty", "POST", "/v1/corpus/ring/edges", `{"edges":[]}`, 400},
		{"add-edges-negative", "POST", "/v1/corpus/ring/edges", `{"edges":[[-1,2]]}`, 400},
		{"detect-on-corpus", "POST", "/v1/detect", `{"algo":"det","k":2,"corpus":"ring"}`, 200},
		{"detect-unknown-corpus", "POST", "/v1/detect", `{"algo":"det","k":2,"corpus":"ghost"}`, 404},
		{"delete", "DELETE", "/v1/corpus/gen", ``, 200},
		{"delete-unknown", "DELETE", "/v1/corpus/gen", ``, 404},
		{"store-stats-memory-only", "GET", "/v1/store", ``, 404},
	}
	for _, s := range steps {
		rr := do(t, h, s.method, s.path, s.body)
		if rr.Code != s.want {
			t.Fatalf("%s: %s %s → %d, want %d (body: %s)", s.name, s.method, s.path, rr.Code, s.want, rr.Body)
		}
	}

	// The add-edges response carries the post-mutation shape, and the
	// detect cycle through the mutated graph still works.
	rr := do(t, h, "POST", "/v1/corpus/ring/edges", `{"edges":[[2,5]]}`)
	var entry corpusEntry
	if err := json.Unmarshal(rr.Body.Bytes(), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.M != 9 || entry.Fingerprint == "" {
		t.Fatalf("mutated entry = %+v, want 9 edges and a fingerprint", entry)
	}
}

// TestMutationWhileDraining proves the admit middleware refuses corpus
// mutations (and everything but healthz) once the server drains.
func TestMutationWhileDraining(t *testing.T) {
	srv, _ := newTestServer(t, "")
	h := srv.routes()
	if rr := do(t, h, "POST", "/v1/corpus/pre", `{"graph":{"n":2,"edges":[[0,1]]}}`); rr.Code != 201 {
		t.Fatalf("pre-drain create → %d", rr.Code)
	}
	srv.draining.Store(true)

	rr := do(t, h, "POST", "/v1/corpus/post", `{"graph":{"n":2,"edges":[[0,1]]}}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining create → %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("draining 503 carries no Retry-After")
	}
	if rr := do(t, h, "POST", "/v1/corpus/pre/edges", `{"edges":[[0,1]]}`); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining add-edges → %d, want 503", rr.Code)
	}
	if rr := do(t, h, "GET", "/healthz", ""); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz → %d, want 503 (draining body)", rr.Code)
	} else if !strings.Contains(rr.Body.String(), "draining") {
		t.Fatalf("draining healthz body %s does not say draining", rr.Body)
	}
}

// TestDurableMutationsSurviveReopen drives mutations through the HTTP
// layer into a real store, then rebuilds server+service+store from the
// directory and checks the corpus comes back fingerprint-identical.
func TestDurableMutationsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	srv, persist := newTestServer(t, dir)
	h := srv.routes()

	if rr := do(t, h, "POST", "/v1/corpus/ring", `{"graph":{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}}`); rr.Code != 201 {
		t.Fatalf("create → %d: %s", rr.Code, rr.Body)
	}
	rr := do(t, h, "POST", "/v1/corpus/ring/edges", `{"edges":[[0,3]]}`)
	if rr.Code != 200 {
		t.Fatalf("add-edges → %d: %s", rr.Code, rr.Body)
	}
	var acked corpusEntry
	if err := json.Unmarshal(rr.Body.Bytes(), &acked); err != nil {
		t.Fatal(err)
	}
	if rr := do(t, h, "POST", "/v1/corpus/doomed", `{"spec":"planted:64:3:1.5","seed":3}`); rr.Code != 201 {
		t.Fatalf("create doomed → %d", rr.Code)
	}
	if rr := do(t, h, "DELETE", "/v1/corpus/doomed", ""); rr.Code != 200 {
		t.Fatalf("delete doomed → %d", rr.Code)
	}
	var st store.Stats
	if rr := do(t, h, "GET", "/v1/store", ""); rr.Code != 200 {
		t.Fatalf("store stats → %d", rr.Code)
	} else if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Appended != 4 || st.Graphs != 1 {
		t.Fatalf("store stats = %+v, want 4 appended mutations and 1 graph", st)
	}
	persist.Close()

	srv2, _ := newTestServer(t, dir)
	h2 := srv2.routes()
	rr = do(t, h2, "GET", "/v1/corpus", "")
	var entries []corpusEntry
	if err := json.Unmarshal(rr.Body.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "ring" {
		t.Fatalf("recovered corpus = %+v, want only ring", entries)
	}
	if entries[0].Fingerprint != acked.Fingerprint || entries[0].M != acked.M {
		t.Fatalf("recovered ring = %+v, want acknowledged shape %+v", entries[0], acked)
	}
	// And the recovered graph serves detections.
	if rr := do(t, h2, "POST", "/v1/detect", `{"algo":"det","k":2,"corpus":"ring"}`); rr.Code != 200 {
		t.Fatalf("detect on recovered corpus → %d: %s", rr.Code, rr.Body)
	}
}

// TestFlagSeededCorpusIsDurablyMutable proves -corpus seeding composes
// with -data-dir: seeded graphs are persisted at boot, so the API can
// append edges to and delete them (they are real store entries, not
// memory-only registrations that 404 on mutation), and after a restart
// the durable — possibly mutated — value wins over the spec.
func TestFlagSeededCorpusIsDurablyMutable(t *testing.T) {
	dir := t.TempDir()
	srv, persist := newTestServer(t, dir)
	entries := []string{"seeded=planted:64:3:1.5", "doomed=gnm:32:40"}
	if err := seedCorpus(srv.svc, true, entries, 7); err != nil {
		t.Fatal(err)
	}
	h := srv.routes()

	rr := do(t, h, "POST", "/v1/corpus/seeded/edges", `{"edges":[[0,9],[1,8]]}`)
	if rr.Code != 200 {
		t.Fatalf("add-edges on flag-seeded graph → %d: %s", rr.Code, rr.Body)
	}
	var mutated corpusEntry
	if err := json.Unmarshal(rr.Body.Bytes(), &mutated); err != nil {
		t.Fatal(err)
	}
	if rr := do(t, h, "DELETE", "/v1/corpus/doomed", ""); rr.Code != 200 {
		t.Fatalf("delete of flag-seeded graph → %d: %s", rr.Code, rr.Body)
	}
	persist.Close()

	// Restart with the same flags. "seeded" keeps its mutated durable
	// value (the spec is skipped with a warning); "doomed" is gone from
	// the store, so the flag re-seeds it — the flag means "ensure this
	// name exists", and durable state wins only where it exists.
	srv2, _ := newTestServer(t, dir)
	if err := seedCorpus(srv2.svc, true, entries, 7); err != nil {
		t.Fatalf("re-seeding after restart: %v", err)
	}
	g, ok := srv2.svc.NamedGraph("seeded")
	if !ok {
		t.Fatal("seeded graph lost across restart")
	}
	if g.Fingerprint().String() != mutated.Fingerprint {
		t.Fatalf("recovered seeded graph fp = %s, want mutated %s (durable state must win over the spec)",
			g.Fingerprint(), mutated.Fingerprint)
	}
	if _, ok := srv2.svc.NamedGraph("doomed"); !ok {
		t.Fatal("deleted flag graph was not re-seeded on the next boot")
	}
}

// TestBodyTrailingData pins that every body-reading endpoint takes
// exactly one JSON value: trailing junk or a second object is a 400 —
// and a rejected corpus mutation is neither applied nor acknowledged —
// while trailing whitespace is accepted.
func TestBodyTrailingData(t *testing.T) {
	srv, _ := newTestServer(t, "")
	h := srv.routes()
	if rr := do(t, h, "POST", "/v1/corpus/ring", `{"graph":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}}`); rr.Code != 201 {
		t.Fatalf("setup create → %d", rr.Code)
	}
	const (
		detect = `{"algo":"det","k":2,"graph":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}}`
		create = `{"graph":{"n":3,"edges":[[0,1],[1,2]]}}`
		edges  = `{"edges":[[0,2]]}`
	)
	for _, c := range []struct {
		name, path, body string
		want             int
	}{
		{"detect-second-object", "/v1/detect", detect + ` {"algo":"even"} junk`, 400},
		{"detect-junk", "/v1/detect", detect + `xyz`, 400},
		{"jobs-second-object", "/v1/jobs", detect + `{}`, 400},
		{"create-junk", "/v1/corpus/a", create + `xyz`, 400},
		{"create-second-object", "/v1/corpus/b", create + create, 400},
		{"edges-brackets", "/v1/corpus/ring/edges", edges + `]]]`, 400},
		{"edges-second-object", "/v1/corpus/ring/edges", edges + ` {"edges":[[1,3]]}`, 400},
		{"detect-whitespace", "/v1/detect", detect + " \n\t\r ", 200},
		{"jobs-whitespace", "/v1/jobs", detect + "\n", 202},
		{"create-whitespace", "/v1/corpus/c", create + "\n", 201},
		{"edges-whitespace", "/v1/corpus/ring/edges", edges + "  \n", 200},
	} {
		if rr := do(t, h, "POST", c.path, c.body); rr.Code != c.want {
			t.Errorf("%s: POST %s → %d, want %d (body: %s)", c.name, c.path, rr.Code, c.want, rr.Body)
		}
	}
	// Only the well-formed creates and the one well-formed edge batch
	// took effect.
	if _, ok := srv.svc.NamedGraph("a"); ok {
		t.Error("create with trailing junk registered a graph")
	}
	if g, _ := srv.svc.NamedGraph("ring"); g.NumEdges() != 5 {
		t.Errorf("ring has %d edges, want 5: a rejected edge batch was applied", g.NumEdges())
	}
}
