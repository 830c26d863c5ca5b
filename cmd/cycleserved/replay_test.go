package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service"
)

// The replay tests drive the real routing table over a real HTTP
// listener (httptest.NewServer) with concurrent closed-loop clients and
// gate the service contracts end to end: re-verified witnesses,
// byte-identical det bodies, /metrics agreeing with the traffic and with
// /v1/stats, fused batching, deadline shedding and durable lineage.

// reply is one HTTP exchange as a client saw it; err is a transport
// error (an abandoned request included), status 0 then.
type reply struct {
	status int
	header http.Header
	body   []byte
	err    error
}

func post(ctx context.Context, url string, body []byte) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, header: resp.Header, body: payload, err: err}
}

// mustPost posts body and fails the test unless the server answers want.
func mustPost(t *testing.T, url, body string, want int) []byte {
	t.Helper()
	r := post(context.Background(), url, []byte(body))
	if r.err != nil || r.status != want {
		t.Fatalf("POST %s %s → %d (err %v), want %d: %s", url, body, r.status, r.err, want, r.body)
	}
	return r.body
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s → %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// replay issues requests through `clients` goroutines, each keeping one
// request in flight; do(i) sends request i.
func replay(requests, clients int, do func(i int) reply) []reply {
	out := make([]reply, requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < requests; i = int(next.Add(1)) - 1 {
				out[i] = do(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// scrape fetches /metrics through the strict parser and validates it.
func scrape(t *testing.T, base string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if err := exp.Validate(); err != nil {
		t.Fatalf("/metrics is inconsistent: %v", err)
	}
	return exp
}

func durationCount(t *testing.T, exp *obs.Exposition) float64 {
	t.Helper()
	h, err := exp.MergedHistogram("evencycle_request_duration_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if h == nil {
		return 0
	}
	return h.Count
}

func stats(t *testing.T, base string) service.Stats {
	t.Helper()
	var st service.Stats
	getJSON(t, base+"/v1/stats", &st)
	return st
}

// armFaults arms fault points for one test and disarms them after it.
func armFaults(t *testing.T, specs ...string) {
	t.Helper()
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	for _, spec := range specs {
		if err := faultpoint.Set(spec); err != nil {
			t.Fatal(err)
		}
	}
}

// inlineBodies marshals one detect request per graph generated from
// spec (seeds seed, seed+1, ...), each shipping its graph inline.
func inlineBodies(t *testing.T, spec string, count int, seed uint64, wire service.WireRequest) [][]byte {
	t.Helper()
	bodies := make([][]byte, count)
	for i := range bodies {
		g, err := graph.FromSpec(spec, seed+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		wire.Graph = &service.WireGraph{N: g.NumNodes(), Edges: g.Edges()}
		if bodies[i], err = json.Marshal(&wire); err != nil {
			t.Fatal(err)
		}
	}
	return bodies
}

// sameBodyPerGraph fails the test unless every 200 for request i is
// byte-identical to every other 200 for graph i%graphs.
func sameBodyPerGraph(t *testing.T, replies []reply, graphs int) {
	t.Helper()
	first := make(map[int][]byte)
	for i, r := range replies {
		if r.status != http.StatusOK {
			continue
		}
		if prev, ok := first[i%graphs]; !ok {
			first[i%graphs] = r.body
		} else if !bytes.Equal(prev, r.body) {
			t.Errorf("graph %d: det bodies differ:\n  %s\n  %s", i%graphs, prev, r.body)
		}
	}
}

func failures(t *testing.T, replies []reply) int {
	t.Helper()
	n := 0
	for i, r := range replies {
		if r.err != nil || r.status != http.StatusOK {
			if n < 5 {
				t.Logf("request %d: status %d err %v: %s", i, r.status, r.err, r.body)
			}
			n++
		}
	}
	return n
}

// TestCorpusReplay replays 400 det k=2 requests from 8 clients over a
// mixed corpus: nothing fails, the cache serves most requests, det
// bodies are byte-identical per graph and every witness re-verifies.
// Two /metrics scrapes around the replay parse strictly, their deltas
// equal the client's successes, and the idle scrape agrees with
// /v1/stats.
func TestCorpusReplay(t *testing.T) {
	svc := service.New(service.Config{Observe: true})
	corpus := []string{
		"planted-a=planted:2000:4:1.5", "planted-b=planted:1500:6:1.5",
		"free-a=highgirth:2000:3000:6", "free-b=pg:7",
	}
	if err := seedCorpus(svc, false, corpus, 1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer((&server{svc: svc, defaultIterations: 32}).routes())
	defer ts.Close()

	names := svc.GraphNames()
	bodies := make([][]byte, len(names))
	for i, name := range names {
		bodies[i] = fmt.Appendf(nil, `{"algo":"det","k":2,"corpus":%q}`, name)
	}
	before := scrape(t, ts.URL)
	const requests = 400
	replies := replay(requests, 8, func(i int) reply {
		return post(context.Background(), ts.URL+"/v1/detect", bodies[i%len(bodies)])
	})
	after := scrape(t, ts.URL)

	if n := failures(t, replies); n != 0 {
		t.Fatalf("%d of %d requests failed", n, requests)
	}
	computed, found := 0, 0
	for i, r := range replies {
		if r.header.Get("X-Evencycle-Source") == string(service.SourceComputed) {
			computed++
		}
		var v struct {
			Found   bool           `json:"found"`
			Witness []graph.NodeID `json:"witness"`
		}
		if err := json.Unmarshal(r.body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Found {
			found++
			g, _ := svc.NamedGraph(names[i%len(names)])
			if err := graph.IsSimpleCycle(g, v.Witness, 4); err != nil {
				t.Fatalf("request %d: witness %v: %v", i, v.Witness, err)
			}
		}
	}
	if found == 0 {
		t.Fatal("no request found a C4, so no witness was checked")
	}
	if ratio := float64(requests-computed) / requests; ratio < 0.5 {
		t.Errorf("hit ratio %.3f, want ≥ 0.5", ratio)
	}
	sameBodyPerGraph(t, replies, len(names))

	if got := durationCount(t, after) - durationCount(t, before); got != requests {
		t.Errorf("request_duration count grew by %v, the client saw %d successes", got, requests)
	}
	servedBefore, _ := before.CounterSum("evencycle_served_total")
	servedAfter, _ := after.CounterSum("evencycle_served_total")
	if got := servedAfter - servedBefore; got != requests {
		t.Errorf("served_total grew by %v, the client saw %d successes", got, requests)
	}

	st := stats(t, ts.URL)
	if st.Errors != 0 || st.Hits == 0 || st.EngineSessions >= st.Requests {
		t.Errorf("stats after the replay: errors %d, hits %d, engine_sessions %d of %d requests",
			st.Errors, st.Hits, st.EngineSessions, st.Requests)
	}
	// The server is idle, so /metrics and /v1/stats read the same
	// counters.
	for _, c := range []struct {
		family string
		want   int64
	}{
		{"evencycle_requests_total", st.Requests},
		{"evencycle_errors_total", st.Errors},
		{"evencycle_engine_sessions_total", st.EngineSessions},
	} {
		if got, ok := after.CounterSum(c.family); !ok || got != float64(c.want) {
			t.Errorf("/metrics %s = %v (present %v), /v1/stats says %d", c.family, got, ok, c.want)
		}
	}
}

// TestInlineBatchingReplay replays 240 requests over 120 distinct inline
// graphs from 16 clients against one admission slot. Every round stalls
// 1 ms, so misses queue behind the running session and grants fuse
// them: fewer engine sessions than distinct graphs, nothing failed. A
// det replay over inline graphs then stays byte-identical per graph
// whichever batch computed each response.
func TestInlineBatchingReplay(t *testing.T) {
	armFaults(t, "round-stall:every=1:delay=1ms")
	svc := service.New(service.Config{Slots: 1})
	ts := httptest.NewServer((&server{svc: svc, defaultIterations: 32}).routes())
	defer ts.Close()
	run := func(bodies [][]byte) []reply {
		return replay(240, 16, func(i int) reply {
			return post(context.Background(), ts.URL+"/v1/detect", bodies[i%len(bodies)])
		})
	}

	const distinct = 120
	even := run(inlineBodies(t, "planted:300:4:1.5", distinct, 7,
		service.WireRequest{Algo: "even", K: 2, Iterations: 2, Seed: 7}))
	if n := failures(t, even); n != 0 {
		t.Fatalf("%d even requests failed", n)
	}
	if st := stats(t, ts.URL); st.EngineSessions >= distinct {
		t.Fatalf("%d distinct graphs ran in %d engine sessions: batching did not fuse misses (max batch %d)",
			distinct, st.EngineSessions, st.MaxBatchSize)
	}

	det := run(inlineBodies(t, "planted:300:4:1.5", 60, 7, service.WireRequest{Algo: "det", K: 2}))
	if n := failures(t, det); n != 0 {
		t.Fatalf("%d det requests failed", n)
	}
	sameBodyPerGraph(t, det, 60)
}

// TestOverloadReplay overloads a server with 2 slots and batching off:
// every round stalls 5 ms, so the 48 distinct misses queue far past
// their 300 ms deadlines, and every 8th request is abandoned by its
// client after 20 ms. The service must shed or expire requests rather
// than queue them to die, still serve some, send Retry-After with every
// 429, and end idle.
func TestOverloadReplay(t *testing.T) {
	armFaults(t, "round-stall:every=1:delay=5ms")
	svc := service.New(service.Config{Slots: 2, BatchSize: 1})
	ts := httptest.NewServer((&server{svc: svc, defaultIterations: 32}).routes())
	defer ts.Close()

	bodies := inlineBodies(t, "gnm:300:700", 48, 1, service.WireRequest{Algo: "det", K: 2, DeadlineMS: 300})
	replies := replay(96, 24, func(i int) reply {
		ctx := context.Background()
		if i%8 == 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, 20*time.Millisecond)
			defer cancel()
		}
		return post(ctx, ts.URL+"/v1/detect", bodies[i%len(bodies)])
	})

	byStatus := make(map[int]int)
	for i, r := range replies {
		byStatus[r.status]++
		if r.status == http.StatusTooManyRequests && r.header.Get("Retry-After") == "" {
			t.Errorf("request %d: 429 without Retry-After", i)
		}
	}
	t.Logf("outcomes by status (0 = abandoned): %v", byStatus)
	if byStatus[http.StatusOK] == 0 {
		t.Error("nothing succeeded under overload")
	}

	// Abandoned requests may still be unwinding server-side.
	var st service.Stats
	for start := time.Now(); ; time.Sleep(10 * time.Millisecond) {
		if st = stats(t, ts.URL); st.InFlight == 0 && st.Queued == 0 {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("service not idle 10 s after the replay: %+v", st)
		}
	}
	if st.Shed+st.DeadlineExceeded == 0 {
		t.Errorf("overload never shed or expired a request: %+v", st)
	}
}

// TestMutateLineageReplay adds 40 random single edges to a durable
// high-girth corpus graph, detecting after each: every mutation's
// parent_fingerprint is the previous fingerprint (a no-op keeps it),
// every detection is served for the fingerprint just acknowledged, and
// after the store is closed and reopened every graph recovers with the
// acknowledged fingerprint.
func TestMutateLineageReplay(t *testing.T) {
	dir := t.TempDir()
	srv, persist := newTestServer(t, dir)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	var created corpusEntry
	if err := json.Unmarshal(mustPost(t, ts.URL+"/v1/corpus/gen",
		`{"spec":"highgirth:500:800:8","seed":3}`, http.StatusCreated), &created); err != nil {
		t.Fatal(err)
	}
	prev := created.Fingerprint
	rng := rand.New(rand.NewPCG(9, 0))
	for op := range 40 {
		var mut mutationEntry
		body := fmt.Sprintf(`{"edges":[[%d,%d]]}`, rng.IntN(created.N), rng.IntN(created.N))
		if err := json.Unmarshal(mustPost(t, ts.URL+"/v1/corpus/gen/edges", body, http.StatusOK), &mut); err != nil {
			t.Fatal(err)
		}
		if mut.ParentFingerprint != prev || (mut.Noop && mut.Fingerprint != prev) {
			t.Fatalf("op %d %s: lineage broken: %+v, previous fingerprint %s", op, body, mut, prev)
		}
		prev = mut.Fingerprint

		var det struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(mustPost(t, ts.URL+"/v1/detect",
			`{"algo":"det","k":2,"corpus":"gen"}`, http.StatusOK), &det); err != nil {
			t.Fatal(err)
		}
		if det.Fingerprint != prev {
			t.Fatalf("op %d: detection served fingerprint %s, the corpus is at %s", op, det.Fingerprint, prev)
		}
	}
	var acked []corpusEntry
	getJSON(t, ts.URL+"/v1/corpus", &acked)
	ts.Close()
	persist.Close()

	srv2, _ := newTestServer(t, dir)
	ts2 := httptest.NewServer(srv2.routes())
	defer ts2.Close()
	var recovered []corpusEntry
	getJSON(t, ts2.URL+"/v1/corpus", &recovered)
	if !reflect.DeepEqual(recovered, acked) || acked[0].Fingerprint != prev {
		t.Fatalf("recovered corpus %+v, acknowledged %+v (last fingerprint %s)", recovered, acked, prev)
	}
}
