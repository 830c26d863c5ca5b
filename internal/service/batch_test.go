package service

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/graph"
	"repro/internal/obs"
)

// batchCorpus builds `count` distinct small graphs: a mix of planted
// C_2k positives and sparse random graphs, the many-small-graphs shape
// the batched miss path exists for.
func batchCorpus(t *testing.T, k, count int, seed uint64) []*graph.Graph {
	t.Helper()
	rng := graph.NewRand(seed)
	gs := make([]*graph.Graph, count)
	for i := range gs {
		n := 32 + rng.IntN(48)
		if i%2 == 0 {
			pg, _, err := graph.PlantedLight(n, 2*k, 2.0, rng)
			if err != nil {
				t.Fatalf("planted: %v", err)
			}
			gs[i] = pg
		} else {
			gs[i] = graph.Gnm(n, 2*n, rng)
		}
	}
	return gs
}

// doAll fires one request per graph concurrently and returns the
// responses and infos in graph order.
func doAll(t *testing.T, s *Service, reqs []*Request) ([]*Response, []Info) {
	t.Helper()
	resps := make([]*Response, len(reqs))
	infos := make([]Info, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req *Request) {
			defer wg.Done()
			resp, info, err := s.DoInfo(context.Background(), req)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			resps[i], infos[i] = resp, info
		}(i, req)
	}
	wg.Wait()
	return resps, infos
}

// holdBusy makes s behave as though a miss were active, so every fusable
// miss that arrives until the returned release is called rides the
// batcher instead of taking the idle direct path. Fusion tests use it to
// keep their concurrent requests fusing however the scheduler orders
// them.
func holdBusy(s *Service) (release func()) {
	s.activeMisses.Add(1)
	return func() { s.activeMisses.Add(-1) }
}

// TestBatchedDetFusesAndSeedsCache pins the tentpole counters on the
// deterministic detector: B compatible concurrent misses run as ONE
// fused engine session, every component's verdict lands in the cache
// under its own fingerprint, and responses are byte-identical to a
// batching-disabled service.
func TestBatchedDetFusesAndSeedsCache(t *testing.T) {
	const B = 6
	gs := batchCorpus(t, 2, B, 41)
	mkReqs := func() []*Request {
		reqs := make([]*Request, B)
		for i, g := range gs {
			reqs[i] = &Request{Graph: g, Algo: AlgoDet, K: 2}
		}
		return reqs
	}
	batched := New(Config{BatchSize: B})
	batched.batcher.Linger = 2 * time.Second
	solo := New(Config{BatchSize: 1})

	release := holdBusy(batched)
	bresps, infos := doAll(t, batched, mkReqs())
	release()
	sresps, _ := doAll(t, solo, mkReqs())

	for i := range gs {
		bj, _ := json.Marshal(bresps[i])
		sj, _ := json.Marshal(sresps[i])
		if string(bj) != string(sj) {
			t.Errorf("graph %d: batched response differs from solo:\nbatched %s\nsolo    %s", i, bj, sj)
		}
		if infos[i].Source != SourceComputed {
			t.Errorf("graph %d: source = %s, want computed", i, infos[i].Source)
		}
		if infos[i].Batch != B {
			t.Errorf("graph %d: batch = %d, want %d", i, infos[i].Batch, B)
		}
	}

	st := batched.Stats()
	if st.FusedSessions != 1 || st.SoloSessions != 0 || st.EngineSessions != 1 {
		t.Errorf("sessions: fused=%d solo=%d engine=%d, want 1/0/1",
			st.FusedSessions, st.SoloSessions, st.EngineSessions)
	}
	if st.Computed != B || st.FusedRequests != B {
		t.Errorf("computed=%d fusedRequests=%d, want %d/%d", st.Computed, st.FusedRequests, B, B)
	}
	if st.BatchesFormed != 1 || st.MaxBatchSize != B || st.MeanBatchSize != float64(B) {
		t.Errorf("batches=%d max=%d mean=%v, want 1/%d/%d",
			st.BatchesFormed, st.MaxBatchSize, st.MeanBatchSize, B, B)
	}
	if st.CacheEntries != B {
		t.Errorf("cache entries = %d, want %d (one per fused component)", st.CacheEntries, B)
	}

	// Every fused verdict must now serve from cache.
	for i, req := range mkReqs() {
		resp, info, err := batched.DoInfo(context.Background(), req)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if info.Source != SourceCache || info.Batch != 0 {
			t.Errorf("replay %d: source=%s batch=%d, want cache/0", i, info.Source, info.Batch)
		}
		if !reflect.DeepEqual(resp, bresps[i]) {
			t.Errorf("replay %d: cached response differs", i)
		}
	}
}

// TestBatchedEvenMatchesSoloService pins serve-path independence of the
// randomized detector: the same requests produce identical responses —
// verdicts, witnesses in each graph's own IDs, rounds, messages, bits,
// congestion — whether the service fuses them or computes each alone.
func TestBatchedEvenMatchesSoloService(t *testing.T) {
	const B = 6
	gs := batchCorpus(t, 2, B, 99)
	mkReqs := func(iters int) []*Request {
		reqs := make([]*Request, B)
		for i, g := range gs {
			reqs[i] = &Request{Graph: g, Algo: AlgoEven, K: 2, Seed: uint64(7 + i), Iterations: iters}
		}
		return reqs
	}
	batched := New(Config{BatchSize: B})
	batched.batcher.Linger = 200 * time.Millisecond
	solo := New(Config{BatchSize: 1})

	release := holdBusy(batched)
	bresps, binfos := doAll(t, batched, mkReqs(3))
	release()
	sresps, _ := doAll(t, solo, mkReqs(3))
	for i := range gs {
		if binfos[i].Batch != B {
			t.Errorf("graph %d: batch = %d, want %d (identity must be checked on a fused run)", i, binfos[i].Batch, B)
		}
		if !reflect.DeepEqual(bresps[i], sresps[i]) {
			t.Errorf("graph %d: batched response differs from solo:\nbatched %+v\nsolo    %+v",
				i, bresps[i], sresps[i])
		}
		if bresps[i].Found {
			if err := graph.IsSimpleCycle(gs[i], bresps[i].Witness, 4); err != nil {
				t.Errorf("graph %d: witness invalid in original graph: %v", i, err)
			}
		}
	}

	// Amplification through the fused path: raise the budget; not-found
	// entries run only the missing trials, identically on both services.
	release = holdBusy(batched)
	bresps2, binfos2 := doAll(t, batched, mkReqs(7))
	release()
	sresps2, sinfos2 := doAll(t, solo, mkReqs(7))
	for i := range gs {
		if !reflect.DeepEqual(bresps2[i], sresps2[i]) {
			t.Errorf("amplified graph %d: batched differs from solo:\nbatched %+v\nsolo    %+v",
				i, bresps2[i], sresps2[i])
		}
		if binfos2[i].Source != sinfos2[i].Source {
			t.Errorf("amplified graph %d: source %s (batched) vs %s (solo)",
				i, binfos2[i].Source, sinfos2[i].Source)
		}
	}
}

// TestBatchedWaiterCancelStillCaches pins the abandoned-waiter contract:
// a caller whose context dies while its batch lingers gets ctx.Err(),
// but the batch still computes and caches its verdict once a live
// batchmate dispatches it. The abandoned key is never requested again
// before the check, so its cached entry can only be the batch's.
func TestBatchedWaiterCancelStillCaches(t *testing.T) {
	gs := batchCorpus(t, 2, 2, 5)
	s := New(Config{BatchSize: 2})
	s.batcher.Linger = time.Hour
	release := holdBusy(s)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	abandoned := &Request{Graph: gs[0], Algo: AlgoDet, K: 2}
	if _, _, err := s.DoInfo(ctx, abandoned); err == nil {
		t.Fatal("expected context error from canceled waiter")
	}
	// The live batchmate fills the batch, which runs both items.
	_, info, err := s.DoInfo(context.Background(), &Request{Graph: gs[1], Algo: AlgoDet, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if info.Batch != 2 {
		t.Fatalf("live batchmate ran in a batch of %d, want 2", info.Batch)
	}
	_, info, err = s.DoInfo(context.Background(), abandoned)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceCache {
		t.Fatalf("source = %s, want cache: the abandoned item's verdict was not cached", info.Source)
	}
}

// TestBatchIncompatibleRequestsDoNotFuse pins the compatibility key:
// concurrent misses differing in k run in separate sessions.
func TestBatchIncompatibleRequestsDoNotFuse(t *testing.T) {
	gs := batchCorpus(t, 2, 2, 13)
	s := New(Config{BatchSize: 2})
	s.batcher.Linger = 20 * time.Millisecond
	reqs := []*Request{
		{Graph: gs[0], Algo: AlgoDet, K: 2},
		{Graph: gs[1], Algo: AlgoDet, K: 3},
	}
	release := holdBusy(s)
	doAll(t, s, reqs)
	release()
	st := s.Stats()
	if st.BatchesFormed != 2 {
		t.Errorf("batches formed = %d, want 2 (both misses rode the batcher)", st.BatchesFormed)
	}
	if st.FusedSessions != 0 {
		t.Errorf("fused sessions = %d, want 0 (incompatible k)", st.FusedSessions)
	}
	if st.EngineSessions != 2 {
		t.Errorf("engine sessions = %d, want 2", st.EngineSessions)
	}
}

// TestBatchUnfusableAlgoKeepsSoloPath pins that the bounded and odd
// detectors bypass the batcher entirely.
func TestBatchUnfusableAlgoKeepsSoloPath(t *testing.T) {
	gs := batchCorpus(t, 2, 2, 21)
	s := New(Config{BatchSize: 8})
	s.batcher.Linger = time.Second
	reqs := []*Request{
		{Graph: gs[0], Algo: AlgoOdd, K: 2, Seed: 1, Iterations: 2},
		{Graph: gs[1], Algo: AlgoBounded, K: 3, Seed: 2, Iterations: 2},
	}
	start := time.Now()
	doAll(t, s, reqs)
	if elapsed := time.Since(start); elapsed > 900*time.Millisecond {
		t.Errorf("unfusable requests appear to have waited on the linger timer (%v)", elapsed)
	}
	st := s.Stats()
	if st.BatchesFormed != 0 || st.SoloSessions != 2 {
		t.Errorf("batches=%d solo=%d, want 0/2", st.BatchesFormed, st.SoloSessions)
	}
}

// doPrompt runs one request and fails the test if it has not returned
// within 10 s: a lone miss that lingers in the batcher would otherwise
// block for the whole hour-long linger these tests configure.
func doPrompt(t *testing.T, s *Service, req *Request) Info {
	t.Helper()
	type result struct {
		info Info
		err  error
	}
	done := make(chan result, 1)
	go func() {
		_, info, err := s.DoInfo(context.Background(), req)
		done <- result{info, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.info
	case <-time.After(10 * time.Second):
		t.Fatal("lone miss on an idle service waited on the batch linger")
		return Info{}
	}
}

// TestIdleMissSkipsLinger pins the routing rule's fast path: a fusable
// miss that finds no other miss active runs at once as a direct batch of
// one, never entering the batcher — no formed batch, no linger stage.
func TestIdleMissSkipsLinger(t *testing.T) {
	g := graph.Gnm(40, 80, graph.NewRand(3))
	for _, algo := range fusableAlgos {
		t.Run(string(algo), func(t *testing.T) {
			s := New(Config{})
			s.batcher.Linger = time.Hour
			tr := &obs.Trace{}
			info := doPrompt(t, s, &Request{Graph: g, Algo: algo, K: 2, Seed: 1, Iterations: 3, Trace: tr})
			if info.Source != SourceComputed || info.Batch != 1 {
				t.Errorf("source=%s batch=%d, want computed/1", info.Source, info.Batch)
			}
			st := s.Stats()
			if st.SoloSessions != 1 || st.BatchesFormed != 0 {
				t.Errorf("solo=%d batches=%d, want 1/0", st.SoloSessions, st.BatchesFormed)
			}
			if ns := tr.Ns(obs.StageBatchLinger); ns != 0 {
				t.Errorf("idle miss stamped a %dns batch-linger stage", ns)
			}
			if tr.Ns(obs.StageEngine) == 0 {
				t.Error("idle miss stamped no engine stage")
			}
		})
	}
}

// TestBusyMissRidesBatcher pins the other side of the rule: misses that
// arrive while another miss is active go through the batcher and fuse.
// The first miss is held active by keeping the only admission slot.
func TestBusyMissRidesBatcher(t *testing.T) {
	gs := batchCorpus(t, 2, 3, 17)
	s := New(Config{Slots: 1, BatchSize: 2})
	s.batcher.Linger = time.Hour
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	infos := make([]Info, len(gs))
	var wg sync.WaitGroup
	start := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, info, err := s.DoInfo(context.Background(), &Request{Graph: gs[i], Algo: AlgoEven, K: 2, Seed: 5, Iterations: 3})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			infos[i] = info
		}()
	}
	start(0)
	waitUntil(t, func() bool { return s.gate.Waiting() == 1 }) // the idle miss waits for the slot
	start(1)
	start(2)
	waitUntil(t, func() bool { return s.gate.Waiting() == 2 }) // the fused batch of the other two
	s.gate.Release()
	wg.Wait()

	if infos[0].Batch != 1 || infos[1].Batch != 2 || infos[2].Batch != 2 {
		t.Errorf("batch sizes %d/%d/%d, want 1/2/2", infos[0].Batch, infos[1].Batch, infos[2].Batch)
	}
	st := s.Stats()
	if st.BatchesFormed != 1 || st.SoloSessions != 1 || st.FusedSessions != 1 {
		t.Errorf("batches=%d solo=%d fused=%d, want 1/1/1", st.BatchesFormed, st.SoloSessions, st.FusedSessions)
	}
}

// TestIdleMissCancelsMidSession pins that a lone miss keeps the direct
// path's cooperative cancellation: its request context reaches the
// engine, so an abandoned request stops mid-session with the cancelled
// class and caches nothing, instead of running to completion.
func TestIdleMissCancelsMidSession(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	if err := faultpoint.Set("round-stall:every=1:delay=5ms"); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Slots: 1})
	s.batcher.Linger = time.Hour
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Do(ctx, &Request{Graph: slowGraph(t), Algo: AlgoEven, K: 2, Seed: 1, Iterations: 5})
		errc <- err
	}()
	waitUntil(t, func() bool { return s.Stats().InFlight == 1 }) // inside the engine
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled lone miss never returned")
	}
	if st := s.Stats(); st.Cancelled != 1 || st.SoloSessions != 0 || st.CacheEntries != 0 {
		t.Fatalf("cancelled=%d solo=%d cache=%d, want 1/0/0", st.Cancelled, st.SoloSessions, st.CacheEntries)
	}
}
