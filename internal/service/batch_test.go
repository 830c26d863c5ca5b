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

// fuseAll is doAll with every admission slot held until each request
// has either queued at the gate or been served from cache. The first
// grant then takes every queued miss that shares its compatibility key
// into one batch (up to BatchSize), however the scheduler orders the
// requests' goroutines.
func fuseAll(t *testing.T, s *Service, reqs []*Request) ([]*Response, []Info) {
	t.Helper()
	hits := s.Stats().Hits
	for i := 0; i < s.gate.Slots(); i++ {
		if err := s.gate.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	var resps []*Response
	var infos []Info
	done := make(chan struct{})
	go func() {
		defer close(done)
		resps, infos = doAll(t, s, reqs)
	}()
	waitUntil(t, func() bool { return int64(s.gate.Waiting())+s.Stats().Hits-hits == int64(len(reqs)) })
	for i := 0; i < s.gate.Slots(); i++ {
		s.gate.Release()
	}
	<-done
	return resps, infos
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
	solo := New(Config{BatchSize: 1})

	bresps, infos := fuseAll(t, batched, mkReqs())
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
	solo := New(Config{BatchSize: 1})

	bresps, binfos := fuseAll(t, batched, mkReqs(3))
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
	bresps2, binfos2 := fuseAll(t, batched, mkReqs(7))
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

// TestBatchedWaiterCancelStillCaches pins the abandoned-rider contract:
// a rider whose context dies after a grant took it gets ctx.Err(), but
// its batch still computes and caches its verdict. The abandoned key is
// never requested again before the check, so its cached entry can only
// be the batch's. Stalled rounds keep the batch running while the rider
// gives up.
func TestBatchedWaiterCancelStillCaches(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	if err := faultpoint.Set("round-stall:every=1:delay=5ms"); err != nil {
		t.Fatal(err)
	}
	gs := batchCorpus(t, 2, 2, 5)
	s := New(Config{Slots: 1, BatchSize: 2})
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	type result struct {
		info Info
		err  error
	}
	do := func(ctx context.Context, g *graph.Graph) <-chan result {
		out := make(chan result, 1)
		queued := s.gate.Waiting()
		go func() {
			_, info, err := s.DoInfo(ctx, &Request{Graph: g, Algo: AlgoDet, K: 2})
			out <- result{info, err}
		}()
		waitUntil(t, func() bool { return s.gate.Waiting() == queued+1 })
		return out
	}
	live := do(context.Background(), gs[0])
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := do(ctx, gs[1])
	s.gate.Release() // the live miss is granted and takes the other
	if n := s.gate.Waiting(); n != 0 {
		t.Fatalf("%d misses still queued after the grant, want 0", n)
	}
	cancel()
	if r := <-abandoned; !errors.Is(r.err, ErrCancelled) {
		t.Fatalf("abandoned rider: err = %v, want ErrCancelled", r.err)
	}
	if r := <-live; r.err != nil || r.info.Batch != 2 {
		t.Fatalf("live leader: batch = %d, err = %v, want a batch of 2", r.info.Batch, r.err)
	}
	faultpoint.Reset()
	_, info, err := s.DoInfo(context.Background(), &Request{Graph: gs[1], Algo: AlgoDet, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceCache {
		t.Fatalf("source = %s, want cache: the abandoned rider's verdict was not cached", info.Source)
	}
}

// TestBatchIncompatibleRequestsDoNotFuse pins the compatibility key:
// concurrent misses differing in k run in separate sessions.
func TestBatchIncompatibleRequestsDoNotFuse(t *testing.T) {
	gs := batchCorpus(t, 2, 2, 13)
	s := New(Config{BatchSize: 2})
	reqs := []*Request{
		{Graph: gs[0], Algo: AlgoDet, K: 2},
		{Graph: gs[1], Algo: AlgoDet, K: 3},
	}
	fuseAll(t, s, reqs)
	st := s.Stats()
	if st.BatchesFormed != 2 {
		t.Errorf("batches formed = %d, want 2 (both misses queued as fusable)", st.BatchesFormed)
	}
	if st.FusedSessions != 0 {
		t.Errorf("fused sessions = %d, want 0 (incompatible k)", st.FusedSessions)
	}
	if st.EngineSessions != 2 {
		t.Errorf("engine sessions = %d, want 2", st.EngineSessions)
	}
}

// TestBatchUnfusableAlgoKeepsSoloPath pins that bounded and odd misses
// never batch: even queued together under equal parameters, each runs
// alone under its own grant.
func TestBatchUnfusableAlgoKeepsSoloPath(t *testing.T) {
	gs := batchCorpus(t, 2, 2, 21)
	s := New(Config{BatchSize: 8})
	reqs := []*Request{
		{Graph: gs[0], Algo: AlgoOdd, K: 2, Seed: 1, Iterations: 2},
		{Graph: gs[1], Algo: AlgoOdd, K: 2, Seed: 1, Iterations: 2},
		{Graph: gs[1], Algo: AlgoBounded, K: 3, Seed: 2, Iterations: 2},
	}
	_, infos := fuseAll(t, s, reqs)
	for i, info := range infos {
		if info.Batch != 1 {
			t.Errorf("request %d ran in a batch of %d, want 1", i, info.Batch)
		}
	}
	st := s.Stats()
	if st.BatchesFormed != 0 || st.SoloSessions != 3 {
		t.Errorf("batches=%d solo=%d, want 0/3", st.BatchesFormed, st.SoloSessions)
	}
}

// TestIdleMissSkipsLinger pins the idle fast path: a fusable miss that
// finds a slot free runs at once as a batch of one — it waits for no
// batchmates, so it stamps no batch-linger stage.
func TestIdleMissSkipsLinger(t *testing.T) {
	g := graph.Gnm(40, 80, graph.NewRand(3))
	for _, algo := range fusableAlgos {
		t.Run(string(algo), func(t *testing.T) {
			s := New(Config{})
			tr := &obs.Trace{}
			_, info, err := s.DoInfo(context.Background(), &Request{Graph: g, Algo: algo, K: 2, Seed: 1, Iterations: 3, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			if info.Source != SourceComputed || info.Batch != 1 {
				t.Errorf("source=%s batch=%d, want computed/1", info.Source, info.Batch)
			}
			st := s.Stats()
			if st.SoloSessions != 1 || st.BatchesFormed != 1 || st.MaxBatchSize != 1 {
				t.Errorf("solo=%d batches=%d max=%d, want 1/1/1", st.SoloSessions, st.BatchesFormed, st.MaxBatchSize)
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

// TestBusyMissesFuseAtGate pins batching on a busy service: misses that
// queue while the only slot is held are taken by the first grant, in
// arrival order, up to BatchSize; the rest keep their place and run next.
func TestBusyMissesFuseAtGate(t *testing.T) {
	gs := batchCorpus(t, 2, 3, 17)
	s := New(Config{Slots: 1, BatchSize: 2})
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	infos := make([]Info, len(gs))
	trs := make([]*obs.Trace, len(gs))
	var wg sync.WaitGroup
	for i := range gs {
		trs[i] = &obs.Trace{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, info, err := s.DoInfo(context.Background(), &Request{Graph: gs[i], Algo: AlgoEven, K: 2, Seed: 5, Iterations: 3, Trace: trs[i]})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			infos[i] = info
		}()
		waitUntil(t, func() bool { return s.gate.Waiting() == i+1 })
	}
	s.gate.Release()
	wg.Wait()

	if infos[0].Batch != 2 || infos[1].Batch != 2 || infos[2].Batch != 1 {
		t.Errorf("batch sizes %d/%d/%d, want 2/2/1", infos[0].Batch, infos[1].Batch, infos[2].Batch)
	}
	// Each miss stamps its wait once: the leaders as queue_wait, the
	// rider as batch_linger.
	for i, tr := range trs {
		queued, lingered := tr.Ns(obs.StageQueueWait) != 0, tr.Ns(obs.StageBatchLinger) != 0
		if rider := i == 1; queued == rider || lingered != rider {
			t.Errorf("request %d: queue_wait=%dns batch_linger=%dns, want only the %s stage", i,
				tr.Ns(obs.StageQueueWait), tr.Ns(obs.StageBatchLinger), map[bool]string{true: "linger", false: "queue"}[rider])
		}
	}
	st := s.Stats()
	if st.BatchesFormed != 2 || st.SoloSessions != 1 || st.FusedSessions != 1 {
		t.Errorf("batches=%d solo=%d fused=%d, want 2/1/1", st.BatchesFormed, st.SoloSessions, st.FusedSessions)
	}
}

// TestIdleMissCancelsMidSession pins that a batch of one keeps
// cooperative cancellation: its request context reaches the
// engine, so an abandoned request stops mid-session with the cancelled
// class and caches nothing, instead of running to completion.
func TestIdleMissCancelsMidSession(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	if err := faultpoint.Set("round-stall:every=1:delay=5ms"); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Slots: 1})
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

// TestQueueBoundCountsFusableMisses pins that the admission queue bound
// counts requests: fusable misses queued for a batch count toward
// MaxQueue like any other, so with the only slot held and MaxQueue
// compatible misses queued, the next miss is rejected.
func TestQueueBoundCountsFusableMisses(t *testing.T) {
	const maxQueue = 3
	gs := batchCorpus(t, 2, maxQueue+1, 31)
	s := New(Config{Slots: 1, MaxQueue: maxQueue})
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < maxQueue; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Do(context.Background(), &Request{Graph: gs[i], Algo: AlgoDet, K: 2}); err != nil {
				t.Errorf("queued miss %d: %v", i, err)
			}
		}()
	}
	waitUntil(t, func() bool { return s.gate.Waiting() == maxQueue })
	_, _, err := s.Do(context.Background(), &Request{Graph: gs[maxQueue], Algo: AlgoDet, K: 2})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	s.gate.Release()
	wg.Wait()
	if st := s.Stats(); st.Rejected != 1 || st.FusedRequests != maxQueue {
		t.Fatalf("rejected=%d fusedRequests=%d, want 1/%d", st.Rejected, st.FusedRequests, maxQueue)
	}
}
