package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
)

func plantedGraph(t *testing.T, n, l int, seed uint64) *graph.Graph {
	t.Helper()
	g, _, err := graph.PlantedLight(n, l, 1.5, graph.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEndToEndVerdictsAndCaching runs the real detectors through the
// service on a planted and a C-free instance, checking verdicts, cache
// hits on repeat, and that hits return the identical response object
// (proof the hit path recomputed nothing).
func TestEndToEndVerdictsAndCaching(t *testing.T) {
	svc := New(Config{Slots: 2})
	planted := plantedGraph(t, 300, 4, 3)
	free := graph.HighGirth(300, 450, 6, graph.NewRand(4)) // girth > 6: no C_4

	cases := []struct {
		name      string
		req       *Request
		wantFound bool
	}{
		{"even-planted", &Request{Graph: planted, Algo: AlgoEven, K: 2, Seed: 7, Iterations: 40}, true},
		{"even-free", &Request{Graph: free, Algo: AlgoEven, K: 2, Seed: 7, Iterations: 5}, false},
		{"det-planted", &Request{Graph: planted, Algo: AlgoDet, K: 2}, true},
		{"det-free", &Request{Graph: free, Algo: AlgoDet, K: 2}, false},
		{"bounded-planted", &Request{Graph: planted, Algo: AlgoBounded, K: 2, Seed: 7, Iterations: 40}, true},
	}
	for _, tc := range cases {
		resp, src, err := svc.Do(context.Background(), tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if src != SourceComputed {
			t.Fatalf("%s: first request served from %q", tc.name, src)
		}
		if resp.Found != tc.wantFound {
			t.Fatalf("%s: found=%v, want %v", tc.name, resp.Found, tc.wantFound)
		}
		if resp.Found {
			if err := graph.IsSimpleCycle(tc.req.Graph, resp.Witness, len(resp.Witness)); err != nil {
				t.Fatalf("%s: witness invalid: %v", tc.name, err)
			}
		}
		if resp.Fingerprint != tc.req.Graph.Fingerprint().String() {
			t.Fatalf("%s: fingerprint %s does not match graph", tc.name, resp.Fingerprint)
		}
		again, src2, err := svc.Do(context.Background(), tc.req)
		if err != nil {
			t.Fatalf("%s: repeat: %v", tc.name, err)
		}
		if src2 != SourceCache {
			t.Fatalf("%s: repeat served from %q, want cache", tc.name, src2)
		}
		if again != resp {
			t.Fatalf("%s: cache hit returned a different response object", tc.name)
		}
	}
	st := svc.Stats()
	if st.EngineSessions != int64(len(cases)) {
		t.Fatalf("engine sessions %d, want %d (one per distinct request)", st.EngineSessions, len(cases))
	}
	if st.Hits != int64(len(cases)) {
		t.Fatalf("hits %d, want %d", st.Hits, len(cases))
	}
}

// TestSingleFlightAtMostOncePerKey hammers a blocking compute hook with
// concurrent identical requests over a few distinct keys and requires one
// computation per key, with every other request served as a hit or
// coalesced.
func TestSingleFlightAtMostOncePerKey(t *testing.T) {
	const distinct, clients, perClient = 5, 8, 20
	svc := New(Config{Slots: 4})
	var computes atomic.Int64
	svc.computeHook = func(req *Request, fp graph.Fingerprint, prior *entry) (*Response, bool, error) {
		computes.Add(1)
		time.Sleep(2 * time.Millisecond) // widen the coalescing window
		return &Response{Algo: req.Algo, K: req.K, Fingerprint: fp.String()}, false, nil
	}
	graphs := make([]*graph.Graph, distinct)
	for i := range graphs {
		graphs[i] = graph.Gnm(40, 80, graph.NewRand(uint64(i)))
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := &Request{Graph: graphs[(c+i)%distinct], Algo: AlgoEven, K: 2, Seed: 1, Iterations: 3}
				if _, _, err := svc.Do(context.Background(), req); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := computes.Load(); got != distinct {
		t.Fatalf("compute ran %d times, want %d (once per key)", got, distinct)
	}
	st := svc.Stats()
	total := clients * perClient
	if st.Requests != int64(total) {
		t.Fatalf("requests %d, want %d", st.Requests, total)
	}
	if st.Hits+st.Coalesced+st.Computed != int64(total) {
		t.Fatalf("hits %d + coalesced %d + computed %d ≠ %d requests",
			st.Hits, st.Coalesced, st.Computed, total)
	}
	if st.Computed != distinct || st.EngineSessions != distinct {
		t.Fatalf("computed=%d engineSessions=%d, want %d", st.Computed, st.EngineSessions, distinct)
	}
}

// TestAmplification checks the randomized-entry budget policy on a C-free
// graph: a larger budget re-query runs only the delta, accumulates costs,
// and updates the entry so covered re-queries are pure hits.
func TestAmplification(t *testing.T) {
	svc := New(Config{})
	free := graph.HighGirth(200, 300, 6, graph.NewRand(9))
	base := &Request{Graph: free, Algo: AlgoEven, K: 2, Seed: 5, Iterations: 2}

	first, src, err := svc.Do(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceComputed || first.Found {
		t.Fatalf("first: source=%q found=%v", src, first.Found)
	}
	if first.Iterations != 2 {
		t.Fatalf("first budget %d, want 2", first.Iterations)
	}

	bigger := *base
	bigger.Iterations = 5
	amp, src, err := svc.Do(context.Background(), &bigger)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceAmplified {
		t.Fatalf("bigger budget served from %q, want amplified", src)
	}
	if amp.Iterations != 5 {
		t.Fatalf("amplified budget %d, want cumulative 5", amp.Iterations)
	}
	if amp.Rounds <= first.Rounds || amp.Messages <= first.Messages {
		t.Fatalf("amplified costs (%d rounds, %d msgs) do not accumulate over (%d, %d)",
			amp.Rounds, amp.Messages, first.Rounds, first.Messages)
	}

	// Covered budgets — equal or smaller — are now pure hits.
	for _, iter := range []int{5, 3, 1} {
		req := *base
		req.Iterations = iter
		resp, src, err := svc.Do(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		if src != SourceCache {
			t.Fatalf("iterations=%d served from %q, want cache", iter, src)
		}
		if resp != amp {
			t.Fatal("covered re-query returned a different response object")
		}
	}
	if st := svc.Stats(); st.EngineSessions != 2 || st.Amplified != 1 {
		t.Fatalf("engineSessions=%d amplified=%d, want 2/1", st.EngineSessions, st.Amplified)
	}
}

// TestDeterministicResponsesByteIdentical serializes det-mode responses
// across repeats, service configurations, seeds and racing clients over a
// mixed planted / C4-free corpus, requiring identical bytes per graph —
// the acceptance bar for the deterministic cache policy — and one
// computation per graph however many clients race (single-flight + cache).
func TestDeterministicResponsesByteIdentical(t *testing.T) {
	corpus := []*graph.Graph{
		plantedGraph(t, 250, 4, 12),
		graph.HighGirth(300, 450, 6, graph.NewRand(13)),
		plantedGraph(t, 300, 4, 14),
		graph.HighGirth(300, 450, 6, graph.NewRand(15)),
	}
	distinct := int64(len(corpus))
	want := make([][]byte, len(corpus))
	var mu sync.Mutex
	for _, tc := range []struct {
		cfg     Config
		clients int
		// fuses: concurrent misses may share a session, so sessions are
		// only bounded by the computation count, not equal to it.
		fuses bool
	}{
		{Config{Slots: 1}, 1, false},
		{Config{Slots: 4, Parallel: 2}, 1, false},
		// Batching off: the session count is exactly one per graph.
		{Config{Slots: 4, BatchSize: 1}, 8, false},
		{Config{Slots: 2, BatchSize: 8}, 8, true},
	} {
		svc := New(tc.cfg)
		var wg sync.WaitGroup
		for c := 0; c < tc.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					for i := range corpus {
						gi := (c + i) % len(corpus)
						// The seed must not matter for det mode: vary it per repeat.
						req := &Request{Graph: corpus[gi], Algo: AlgoDet, K: 2, Seed: uint64(3*c + rep)}
						resp, _, err := svc.Do(context.Background(), req)
						if err != nil {
							t.Error(err)
							return
						}
						got, err := json.Marshal(resp)
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						if want[gi] == nil {
							want[gi] = got
						} else if string(got) != string(want[gi]) {
							t.Errorf("%+v: graph %d: det response differs:\n  %s\n  %s", tc.cfg, gi, want[gi], got)
						}
						mu.Unlock()
					}
				}
			}(c)
		}
		wg.Wait()
		st := svc.Stats()
		if st.Computed != distinct || st.EngineSessions > distinct || (!tc.fuses && st.EngineSessions != distinct) {
			t.Fatalf("%+v, %d clients: computed=%d engineSessions=%d for %d graphs (seed is not in the det key)",
				tc.cfg, tc.clients, st.Computed, st.EngineSessions, distinct)
		}
	}
}

// TestLRUEviction pins the eviction behavior: with capacity 2, a third
// distinct key evicts the least-recently-used entry, whose re-query
// recomputes.
func TestLRUEviction(t *testing.T) {
	svc := New(Config{CacheEntries: 2})
	var computes atomic.Int64
	svc.computeHook = func(req *Request, fp graph.Fingerprint, prior *entry) (*Response, bool, error) {
		computes.Add(1)
		return &Response{Algo: req.Algo, K: req.K, Fingerprint: fp.String()}, false, nil
	}
	gs := []*graph.Graph{
		graph.Gnm(30, 60, graph.NewRand(1)),
		graph.Gnm(30, 60, graph.NewRand(2)),
		graph.Gnm(30, 60, graph.NewRand(3)),
	}
	do := func(i int) Source {
		_, src, err := svc.Do(context.Background(), &Request{Graph: gs[i], Algo: AlgoDet, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	do(0)
	do(1)
	if src := do(0); src != SourceCache { // refresh 0's recency
		t.Fatalf("expected hit on 0, got %q", src)
	}
	do(2) // evicts 1 (LRU)
	if src := do(0); src != SourceCache {
		t.Fatalf("0 was evicted (%q), want it retained", src)
	}
	if src := do(1); src != SourceComputed {
		t.Fatalf("evicted 1 served from %q, want recompute", src)
	}
	if got := computes.Load(); got != 4 {
		t.Fatalf("computed %d times, want 4", got)
	}
}

// TestOddResponseCarriesFullCosts pins that an odd response's body
// carries the color-BFS costs the detector measured: bits for every
// message, and the congestion watermark and overflow against τ=2, which
// every coloring of this instance overflows.
func TestOddResponseCarriesFullCosts(t *testing.T) {
	g, err := graph.FromSpec("planted:300:5:1.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := New(Config{}).Do(context.Background(),
		&Request{Graph: g, Algo: AlgoOdd, K: 2, Seed: 1, Iterations: 40, Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Messages      int64 `json:"messages"`
		Bits          int64 `json:"bits"`
		MaxCongestion int   `json:"max_congestion"`
		Overflowed    bool  `json:"overflowed"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	if want := wire.Messages * congest.MessageBits(300); wire.Messages == 0 || wire.Bits != want {
		t.Fatalf("bits = %d for %d messages, want %d: %s", wire.Bits, wire.Messages, want, body)
	}
	if !wire.Overflowed || wire.MaxCongestion < 1 {
		t.Fatalf("τ=2 odd run reports overflowed=%v max_congestion=%d: %s", wire.Overflowed, wire.MaxCongestion, body)
	}
}

// TestParameterPlumbing pins that every verdict-shaping request field
// reaches its detector: τ=1 must overflow the odd detector (the field
// was once silently dropped while still part of the cache key), and ε
// must change the even detector's faithful parameterization and key.
func TestParameterPlumbing(t *testing.T) {
	svc := New(Config{})
	g, _, err := graph.PlantedLight(200, 3, 2.5, graph.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	// Odd detector: default τ=4 vs τ=1. With τ=1 every forwarder prunes,
	// so the run's congestion watermark must stay at 1.
	loose, _, err := svc.Do(context.Background(), &Request{Graph: g, Algo: AlgoOdd, K: 1, Seed: 2, Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	tight, src, err := svc.Do(context.Background(), &Request{Graph: g, Algo: AlgoOdd, K: 1, Seed: 2, Iterations: 30, Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceComputed {
		t.Fatalf("threshold-differing request served from %q — threshold not in effectful key", src)
	}
	if loose.Messages == tight.Messages {
		t.Fatalf("τ=1 odd run sent the same %d messages as τ=4 — threshold not reaching the detector", tight.Messages)
	}
	// Even detector: ε shapes the faithful τ; distinct ε must compute
	// separately and yield different parameterizations' costs.
	free := graph.HighGirth(150, 220, 6, graph.NewRand(4))
	a, _, err := svc.Do(context.Background(), &Request{Graph: free, Algo: AlgoEven, K: 2, Seed: 2, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, src, err := svc.Do(context.Background(), &Request{Graph: free, Algo: AlgoEven, K: 2, Seed: 2, Iterations: 2, Eps: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceComputed {
		t.Fatalf("ε-differing request served from %q — ε not in the key", src)
	}
	if a.MaxCongestion == b.MaxCongestion && a.Messages == b.Messages {
		t.Fatal("ε=0.9 run indistinguishable from ε=1/3 — ε not reaching the detector")
	}
	if _, _, err := svc.Do(context.Background(), &Request{Graph: free, Algo: AlgoEven, K: 2, Iterations: 1, Eps: 2}); err == nil ||
		!strings.Contains(err.Error(), "ε") {
		t.Fatalf("invalid ε accepted: %v", err)
	}
}

// TestThresholdAboveInt32 pins that a request τ beyond MaxInt32 reaches
// the detectors saturated, not wrapped: a det verdict at τ = 2³² is the
// default τ's (and is cached forever, so a wrapped τ's blind miss would
// stick), and an even request at the same τ runs without error or
// overflow.
func TestThresholdAboveInt32(t *testing.T) {
	svc := New(Config{})
	g := graph.Gnm(50, 100, graph.NewRand(4))
	def, _, err := svc.Do(context.Background(), &Request{Graph: g, Algo: AlgoDet, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	huge, _, err := svc.Do(context.Background(), &Request{Graph: g, Algo: AlgoDet, K: 2, Threshold: 1 << 32})
	if err != nil {
		t.Fatal(err)
	}
	if !def.Found || !huge.Found || huge.Overflowed {
		t.Fatalf("det at τ=2³²: found %v overflowed %v; default τ found %v", huge.Found, huge.Overflowed, def.Found)
	}
	even, _, err := svc.Do(context.Background(), &Request{Graph: g, Algo: AlgoEven, K: 2, Seed: 3, Iterations: 2, Threshold: 1 << 32})
	if err != nil {
		t.Fatalf("even at τ=2³²: %v", err)
	}
	if even.Overflowed {
		t.Fatal("even at τ=2³² overflowed")
	}
}

// TestRequestValidation covers the pre-admission error paths.
func TestRequestValidation(t *testing.T) {
	svc := New(Config{})
	g := graph.Gnm(20, 30, graph.NewRand(1))
	cases := []struct {
		name string
		req  *Request
		want string
	}{
		{"nil-graph", &Request{Algo: AlgoEven, K: 2, Iterations: 1}, "no graph"},
		{"bad-algo", &Request{Graph: g, Algo: "quantum", K: 2, Iterations: 1}, "unknown algo"},
		{"k-too-small", &Request{Graph: g, Algo: AlgoEven, K: 1, Iterations: 1}, "k ≥ 2"},
		{"odd-k-zero", &Request{Graph: g, Algo: AlgoOdd, K: 0, Iterations: 1}, "k ≥ 1"},
		{"no-budget", &Request{Graph: g, Algo: AlgoEven, K: 2}, "trial budget"},
		{"negative-threshold", &Request{Graph: g, Algo: AlgoDet, K: 2, Threshold: -1}, "negative threshold"},
	}
	for _, tc := range cases {
		_, _, err := svc.Do(context.Background(), tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if st := svc.Stats(); st.Errors != int64(len(cases)) || st.EngineSessions != 0 {
		t.Fatalf("errors=%d engineSessions=%d, want %d/0", st.Errors, st.EngineSessions, len(cases))
	}
}

// TestOutOfRangeParamsFailBeforeAdmission pins that a NaN ε (which the
// Go facade can carry, unlike JSON) and a k whose target cycle overflows
// the int8 color range fail validation: no engine session runs and no
// in-flight entry is left behind (a NaN key would never be deleted).
func TestOutOfRangeParamsFailBeforeAdmission(t *testing.T) {
	svc := New(Config{})
	g := graph.Gnm(60, 120, graph.NewRand(1))
	cases := []struct {
		name string
		req  *Request
		want string
	}{
		{"even-nan-eps", &Request{Graph: g, Algo: AlgoEven, K: 2, Iterations: 1, Eps: math.NaN()}, "outside (0,1)"},
		{"bounded-nan-eps", &Request{Graph: g, Algo: AlgoBounded, K: 2, Iterations: 1, Eps: math.NaN()}, "outside (0,1)"},
		{"even-k64", &Request{Graph: g, Algo: AlgoEven, K: 64, Iterations: 1}, "longer than 127"},
		{"even-k64-threshold", &Request{Graph: g, Algo: AlgoEven, K: 64, Iterations: 1, Threshold: 5}, "longer than 127"},
		{"bounded-k64", &Request{Graph: g, Algo: AlgoBounded, K: 64, Iterations: 1}, "longer than 127"},
		{"odd-k64", &Request{Graph: g, Algo: AlgoOdd, K: 64, Iterations: 1}, "longer than 127"},
		{"det-k64", &Request{Graph: g, Algo: AlgoDet, K: 64}, "longer than 127"},
	}
	for _, tc := range cases {
		_, _, err := svc.Do(context.Background(), tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if st := svc.Stats(); st.Errors != int64(len(cases)) || st.EngineSessions != 0 {
		t.Fatalf("errors=%d engineSessions=%d, want %d/0", st.Errors, st.EngineSessions, len(cases))
	}
	svc.mu.Lock()
	inflight := len(svc.inflight)
	svc.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d in-flight entries left behind, want 0", inflight)
	}
	// The largest k still passes validation and runs.
	if _, _, err := svc.Do(context.Background(), &Request{Graph: g, Algo: AlgoEven, K: 63, Iterations: 1, Threshold: 4}); err != nil {
		t.Fatalf("k=63: %v", err)
	}
}

// TestOverload pins the bounded-queue rejection: with one slot held and
// the queue full, a further distinct request fails fast with
// ErrOverloaded.
func TestOverload(t *testing.T) {
	svc := New(Config{Slots: 1, MaxQueue: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	svc.computeHook = func(req *Request, fp graph.Fingerprint, prior *entry) (*Response, bool, error) {
		started <- struct{}{}
		<-release
		return &Response{Algo: req.Algo, K: req.K, Fingerprint: fp.String()}, false, nil
	}
	gs := []*graph.Graph{
		graph.Gnm(30, 60, graph.NewRand(1)),
		graph.Gnm(30, 60, graph.NewRand(2)),
		graph.Gnm(30, 60, graph.NewRand(3)),
	}
	var wg sync.WaitGroup
	do := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := svc.Do(context.Background(), &Request{Graph: gs[i], Algo: AlgoDet, K: 2}); err != nil {
				t.Error(err)
			}
		}()
	}
	do(0)
	<-started // request 0 holds the slot
	do(1)     // request 1 queues
	waitUntil(t, func() bool { return svc.Stats().Queued == 1 })

	_, _, err := svc.Do(context.Background(), &Request{Graph: gs[2], Algo: AlgoDet, K: 2})
	if err != ErrOverloaded {
		t.Fatalf("overflowing request returned %v, want ErrOverloaded", err)
	}
	close(release)
	wg.Wait()
	if st := svc.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected=%d, want 1", st.Rejected)
	}
}

// TestContextCancelWhileQueued checks a canceled waiter fails with the
// context error and a later identical request still computes cleanly.
func TestContextCancelWhileQueued(t *testing.T) {
	svc := New(Config{Slots: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	svc.computeHook = func(req *Request, fp graph.Fingerprint, prior *entry) (*Response, bool, error) {
		started <- struct{}{}
		<-release
		return &Response{Algo: req.Algo, K: req.K, Fingerprint: fp.String()}, false, nil
	}
	g1 := graph.Gnm(30, 60, graph.NewRand(1))
	g2 := graph.Gnm(30, 60, graph.NewRand(2))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := svc.Do(context.Background(), &Request{Graph: g1, Algo: AlgoDet, K: 2}); err != nil {
			t.Error(err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := svc.Do(ctx, &Request{Graph: g2, Algo: AlgoDet, K: 2})
		errc <- err
	}()
	waitUntil(t, func() bool { return svc.Stats().Queued == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, ErrCancelled) {
		t.Fatalf("canceled request returned %v, want ErrCancelled", err)
	}
	close(release)
	wg.Wait()
	// The canceled key is clear: a fresh request computes.
	if _, src, err := svc.Do(context.Background(), &Request{Graph: g2, Algo: AlgoDet, K: 2}); err != nil || src != SourceComputed {
		t.Fatalf("post-cancel request: source=%q err=%v", src, err)
	}
}

// TestJobsLifecycle drives the async path: Submit returns immediately,
// the job reaches done with the same response a sync Do yields, and
// unknown IDs report absence.
func TestJobsLifecycle(t *testing.T) {
	svc := New(Config{})
	planted := plantedGraph(t, 200, 4, 21)
	id := svc.Submit(&Request{Graph: planted, Algo: AlgoDet, K: 2})
	if id == "" {
		t.Fatal("empty job id")
	}
	var job Job
	waitUntil(t, func() bool {
		var ok bool
		job, ok = svc.Job(id)
		if !ok {
			t.Fatal("job vanished")
		}
		return job.State == JobDone || job.State == JobFailed
	})
	if job.State != JobDone || !job.Response.Found {
		t.Fatalf("job state=%s found=%v err=%q", job.State, job.Response != nil && job.Response.Found, job.Error)
	}
	sync, src, err := svc.Do(context.Background(), &Request{Graph: planted, Algo: AlgoDet, K: 2})
	if err != nil || src != SourceCache {
		t.Fatalf("sync follow-up: src=%q err=%v", src, err)
	}
	if sync != job.Response {
		t.Fatal("job and sync responses are different objects")
	}
	if _, ok := svc.Job("job-999999"); ok {
		t.Fatal("unknown job id resolved")
	}

	bad := svc.Submit(&Request{Algo: AlgoEven, K: 2, Iterations: 1}) // nil graph
	waitUntil(t, func() bool {
		j, _ := svc.Job(bad)
		return j.State == JobFailed
	})
	if j, _ := svc.Job(bad); !strings.Contains(j.Error, "no graph") {
		t.Fatalf("failed job error %q", j.Error)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
