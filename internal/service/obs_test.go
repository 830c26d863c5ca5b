package service

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// TestStatsCoherenceHammer snapshots Stats continuously while mixed
// traffic (hits, misses, coalesced waits, validation errors) hammers the
// service, and requires the entry/exit invariant in EVERY snapshot:
// Requests ≥ Hits+Coalesced+Amplified+Computed+Errors, and Errors ≥ the
// attributed reasons. The counters are lock-free, so this holds only
// because Stats reads exit counters before the entry counter.
func TestStatsCoherenceHammer(t *testing.T) {
	const clients, perClient, distinct = 8, 300, 4
	svc := New(Config{Slots: 2})
	svc.computeHook = func(req *Request, fp graph.Fingerprint, prior *entry) (*Response, bool, error) {
		return &Response{Algo: req.Algo, K: req.K, Fingerprint: fp.String()}, false, nil
	}
	graphs := make([]*graph.Graph, distinct)
	for i := range graphs {
		graphs[i] = graph.Gnm(30, 60, graph.NewRand(uint64(i)))
	}

	stop := make(chan struct{})
	var snapErr error
	var snapMu sync.Mutex
	var snapshots int
	var watchers sync.WaitGroup
	for w := 0; w < 2; w++ {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := svc.Stats()
				exits := st.Hits + st.Coalesced + st.Amplified + st.Computed + st.Errors
				reasons := st.Rejected + st.Shed + st.DeadlineExceeded + st.Cancelled + st.Panics
				snapMu.Lock()
				snapshots++
				if st.Requests < exits && snapErr == nil {
					snapErr = fmt.Errorf("requests %d < exits %d (h=%d c=%d a=%d comp=%d e=%d)",
						st.Requests, exits, st.Hits, st.Coalesced, st.Amplified, st.Computed, st.Errors)
				}
				if st.Errors < reasons && snapErr == nil {
					snapErr = fmt.Errorf("errors %d < attributed reasons %d", st.Errors, reasons)
				}
				snapMu.Unlock()
			}
		}()
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if i%7 == 3 {
					// A validation error: exits via the Errors counter.
					bad := &Request{Graph: graphs[0], Algo: AlgoEven, K: 2, Iterations: 0}
					if _, _, err := svc.Do(context.Background(), bad); err == nil {
						t.Error("invalid request served")
						return
					}
					continue
				}
				req := &Request{Graph: graphs[(c+i)%distinct], Algo: AlgoEven, K: 2, Seed: 1, Iterations: 3}
				if _, _, err := svc.Do(context.Background(), req); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	watchers.Wait()
	snapMu.Lock()
	defer snapMu.Unlock()
	if snapErr != nil {
		t.Fatalf("incoherent snapshot (of %d): %v", snapshots, snapErr)
	}
	if snapshots == 0 {
		t.Fatal("watchers took no snapshots")
	}
	// The quiesced totals must balance exactly.
	st := svc.Stats()
	if got := st.Hits + st.Coalesced + st.Amplified + st.Computed + st.Errors; got != st.Requests {
		t.Fatalf("final exits %d ≠ requests %d", got, st.Requests)
	}
}

// TestRequestTraceStages opts one request into a stage trace on a
// DISARMED service (tracing is per-request, not config-gated) and checks
// the stamped stages for a computed miss and a cache hit.
func TestRequestTraceStages(t *testing.T) {
	svc := New(Config{Slots: 1})
	svc.computeHook = func(req *Request, fp graph.Fingerprint, prior *entry) (*Response, bool, error) {
		time.Sleep(2 * time.Millisecond)
		return &Response{Algo: req.Algo, K: req.K, Fingerprint: fp.String()}, false, nil
	}
	g := graph.Gnm(30, 60, graph.NewRand(1))

	tr := &obs.Trace{}
	req := &Request{Graph: g, Algo: AlgoEven, K: 2, Seed: 1, Iterations: 3, Trace: tr}
	if _, src, err := svc.Do(context.Background(), req); err != nil || src != SourceComputed {
		t.Fatalf("miss: src=%v err=%v", src, err)
	}
	if eng := tr.Ns(obs.StageEngine); eng < int64(time.Millisecond) {
		t.Fatalf("engine stage %dns, want ≥ the hook's 2ms", eng)
	}
	if tr.Ns(obs.StageBatchLinger) != 0 {
		t.Fatal("solo path stamped a batch-linger stage")
	}
	if tr.Total() < tr.Ns(obs.StageEngine) {
		t.Fatalf("total %d < engine %d", tr.Total(), tr.Ns(obs.StageEngine))
	}

	hitTr := &obs.Trace{}
	hitReq := &Request{Graph: g, Algo: AlgoEven, K: 2, Seed: 1, Iterations: 3, Trace: hitTr}
	if _, src, err := svc.Do(context.Background(), hitReq); err != nil || src != SourceCache {
		t.Fatalf("hit: src=%v err=%v", src, err)
	}
	if hitTr.Ns(obs.StageEngine) != 0 || hitTr.Ns(obs.StageQueueWait) != 0 {
		t.Fatalf("cache hit stamped compute stages: engine=%d queue=%d",
			hitTr.Ns(obs.StageEngine), hitTr.Ns(obs.StageQueueWait))
	}

	// Untraced requests on a disarmed service must keep working (the
	// nil-trace path) — and the registry's stage histograms stay empty.
	if _, _, err := svc.Do(context.Background(), &Request{Graph: g, Algo: AlgoEven, K: 2, Seed: 1, Iterations: 3}); err != nil {
		t.Fatal(err)
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if n := svc.stageDur[st].Count(); n != 0 {
			t.Fatalf("disarmed service fed stage histogram %s (%d observations)", st, n)
		}
	}
}

// TestObservedMetricsEndToEnd drives real detections through an ARMED
// service and checks the scrape: parseable, internally consistent, and
// agreeing with the Stats snapshot and serve-path histogram counts.
func TestObservedMetricsEndToEnd(t *testing.T) {
	svc := New(Config{Slots: 2, Observe: true, BatchSize: 1})
	planted := plantedGraph(t, 200, 4, 3)
	free := graph.HighGirth(200, 300, 6, graph.NewRand(4))

	reqs := []*Request{
		{Graph: planted, Algo: AlgoDet, K: 2},
		{Graph: free, Algo: AlgoDet, K: 2},
		{Graph: planted, Algo: AlgoEven, K: 2, Seed: 7, Iterations: 10},
	}
	for _, r := range reqs {
		if _, _, err := svc.Do(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	// Repeat: cache hits.
	for _, r := range reqs {
		if _, src, err := svc.Do(context.Background(), r); err != nil || src != SourceCache {
			t.Fatalf("repeat: src=%v err=%v", src, err)
		}
	}

	var buf bytes.Buffer
	if err := svc.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if err := exp.Validate(); err != nil {
		t.Fatalf("exposition inconsistent: %v", err)
	}

	st := svc.Stats()
	if got, ok := exp.CounterSum(mRequests); !ok || got != float64(st.Requests) {
		t.Fatalf("%s = %v (ok=%v), stats say %d", mRequests, got, ok, st.Requests)
	}
	if got, ok := exp.CounterSum(mServed); !ok || got != float64(st.Hits+st.Coalesced+st.Amplified+st.Computed) {
		t.Fatalf("%s = %v (ok=%v), stats sum %d", mServed, got, ok,
			st.Hits+st.Coalesced+st.Amplified+st.Computed)
	}
	// Every success went through a latency histogram.
	dur, err := exp.MergedHistogram(mRequestDur)
	if err != nil {
		t.Fatal(err)
	}
	if dur == nil || dur.Count != float64(st.Requests-st.Errors) {
		t.Fatalf("%s count = %+v, want %d observations", mRequestDur, dur, st.Requests-st.Errors)
	}
	// Engine sessions fed the round/wall histograms. The engine counts
	// RunSession completions — every trial of a randomized detection is
	// its own session — so the count is at least the service-level
	// session count, usually far more.
	rounds, err := exp.MergedHistogram(mEngineRounds)
	if err != nil {
		t.Fatal(err)
	}
	if rounds == nil || rounds.Count < float64(st.EngineSessions) {
		t.Fatalf("%s count = %+v, want ≥ %d service sessions", mEngineRounds, rounds, st.EngineSessions)
	}
	if rounds.Sum <= 0 {
		t.Fatalf("%s sum = %v, want > 0 rounds", mEngineRounds, rounds.Sum)
	}
	// The gate observed one wait per admitted computation.
	gw, err := exp.MergedHistogram(mGateWait)
	if err != nil {
		t.Fatal(err)
	}
	if gw == nil || gw.Count != float64(st.EngineSessions) {
		t.Fatalf("%s count = %+v, want %d acquisitions", mGateWait, gw, st.EngineSessions)
	}
}

// TestCatalogScrapeMatchesStats checks every catalog row's /metrics
// series against the Stats field it fills, on a quiesced armed service
// after a workload that moves hits, computes, amplification, validation
// errors, a mutation and a warm start.
func TestCatalogScrapeMatchesStats(t *testing.T) {
	svc := New(Config{Slots: 2, Observe: true, BatchSize: 1})
	parent, closing := openPathGraph(64, 0, 1, 2, 3)
	if err := svc.CreateCorpus("g", parent); err != nil {
		t.Fatal(err)
	}
	free := graph.HighGirth(200, 300, 6, graph.NewRand(4))
	det := &Request{Graph: parent, Algo: AlgoDet, K: 2}
	even := &Request{Graph: free, Algo: AlgoEven, K: 2, Seed: 1, Iterations: 2}
	for _, r := range []*Request{det, even, det, even} {
		if _, _, err := svc.Do(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	more := &Request{Graph: free, Algo: AlgoEven, K: 2, Seed: 1, Iterations: 4}
	if _, src, err := svc.Do(context.Background(), more); err != nil || src != SourceAmplified {
		t.Fatalf("larger budget: src=%v err=%v, want amplified", src, err)
	}
	if _, _, err := svc.Do(context.Background(), &Request{Graph: free, Algo: AlgoEven, K: 2}); err == nil {
		t.Fatal("zero-iteration request served")
	}
	if _, err := svc.AddCorpusEdges("g", [][2]graph.NodeID{closing}); err != nil {
		t.Fatal(err)
	}
	child, _ := svc.NamedGraph("g")
	if _, src, err := svc.Do(context.Background(), &Request{Graph: child, Algo: AlgoDet, K: 2}); err != nil || src != SourceCache {
		t.Fatalf("warmed child: src=%v err=%v, want cache", src, err)
	}

	st := svc.Stats()
	if st.Hits != 3 || st.Computed != 2 || st.Amplified != 1 || st.Errors != 1 || st.Mutations != 1 ||
		st.WarmStarts != 1 || st.WarmHits != 1 || st.CacheEntries != 3 || st.MeanSessionMS <= 0 {
		t.Fatalf("workload did not move the counters it names: %+v", st)
	}
	var buf bytes.Buffer
	if err := svc.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	labels := func(key, value string) map[string]string {
		if key == "" {
			return nil
		}
		return map[string]string{key: value}
	}
	// A few series by name, so a row whose label and field are crossed
	// with another row's shows.
	for _, want := range []struct {
		family, key, value string
		n                  float64
	}{
		{mRequests, "", "", 7}, {mServed, "path", "hit", 3}, {mServed, "path", "computed", 2},
		{mServed, "path", "amplified", 1}, {"evencycle_errors_total", "", "", 1},
		{"evencycle_engine_sessions_total", "mode", "solo", 3},
		{"evencycle_corpus_mutations_total", "kind", "applied", 1},
		{"evencycle_warm_total", "event", "start", 1}, {"evencycle_warm_total", "event", "hit", 1},
		{"evencycle_cache_entries", "", "", 3},
	} {
		if v, ok := exp.Value(want.family, labels(want.key, want.value)); !ok || v != want.n {
			t.Errorf("%s{%s=%s} = %v (ok=%v), want %v", want.family, want.key, want.value, v, ok, want.n)
		}
	}
	for i := range catalog {
		r := &catalog[i]
		v, ok := exp.Value(r.family, labels(r.key, r.value))
		if !ok {
			t.Fatalf("%s{%s=%s} not exposed", r.family, r.key, r.value)
		}
		// Storing the scraped value into the snapshot must change nothing.
		scraped := st
		r.store(&scraped, int64(v))
		if scraped != st {
			t.Errorf("%s{%s=%s} = %v disagrees with stats %+v", r.family, r.key, r.value, v, st)
		}
	}
}

// TestObserveHitPathAllocParity pins that arming observation adds ZERO
// allocations to the cache-hit path: histograms observe with two atomic
// adds into preallocated buckets. A regression here (boxing, map lookup,
// time.Time escape) shows up as armed > disarmed.
func TestObserveHitPathAllocParity(t *testing.T) {
	measure := func(observe bool) float64 {
		svc := New(Config{Slots: 1, Observe: observe})
		svc.computeHook = func(req *Request, fp graph.Fingerprint, prior *entry) (*Response, bool, error) {
			return &Response{Algo: req.Algo, K: req.K, Fingerprint: fp.String()}, false, nil
		}
		g := graph.Gnm(30, 60, graph.NewRand(1))
		req := &Request{Graph: g, Algo: AlgoEven, K: 2, Seed: 1, Iterations: 3}
		if _, src, err := svc.Do(context.Background(), req); err != nil || src != SourceComputed {
			t.Fatalf("prime: src=%v err=%v", src, err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, src, err := svc.Do(context.Background(), req); err != nil || src != SourceCache {
				t.Fatalf("hit: src=%v err=%v", src, err)
			}
		})
	}
	disarmed, armed := measure(false), measure(true)
	if armed > disarmed {
		t.Fatalf("armed hit path allocates %.1f/op vs %.1f/op disarmed", armed, disarmed)
	}
	// The hit path itself is expected alloc-free; a small cushion guards
	// against runtime noise, not against a real regression.
	if disarmed > 1 {
		t.Fatalf("disarmed hit path allocates %.1f/op, want ≤ 1", disarmed)
	}
}
