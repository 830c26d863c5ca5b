package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/graph"
)

// slowGraph is big enough that a detection spends many engine rounds —
// paired with an armed round-stall faultpoint, its runs are guaranteed
// to outlive millisecond-scale deadlines.
func slowGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.Gnm(400, 900, graph.NewRand(7))
}

// fusableAlgos are the algos whose misses run through the fused drivers
// (core.DetectEvenCycleFused, deterministic.DetectMulti) at every batch
// size, so cancellation must reach both.
var fusableAlgos = []Algo{AlgoEven, AlgoDet}

// TestDeadlineExpiresMidComputation pins the 408 domain: a request whose
// deadline expires while its engine session is running is cancelled
// cooperatively and surfaces ErrDeadline (not a raw context error).
func TestDeadlineExpiresMidComputation(t *testing.T) {
	for _, algo := range fusableAlgos {
		t.Run(string(algo), func(t *testing.T) {
			faultpoint.Reset()
			defer faultpoint.Reset()
			if err := faultpoint.Set("round-stall:every=1:delay=5ms"); err != nil {
				t.Fatal(err)
			}
			svc := New(Config{Slots: 1, BatchSize: 1}) // a direct batch of one: ctx reaches the engine
			req := &Request{Graph: slowGraph(t), Algo: algo, K: 2, Iterations: 5, Deadline: 25 * time.Millisecond}
			_, _, err := svc.Do(context.Background(), req)
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("err = %v, want ErrDeadline", err)
			}
			if st := svc.Stats(); st.DeadlineExceeded != 1 || st.Errors != 1 {
				t.Fatalf("stats = %+v, want DeadlineExceeded=1 Errors=1", st)
			}
			// The service is intact: the same request without a deadline
			// (and without the stall) completes.
			faultpoint.Reset()
			if _, _, err := svc.Do(context.Background(), &Request{Graph: slowGraph(t), Algo: algo, K: 2, Iterations: 5}); err != nil {
				t.Fatalf("post-deadline request: %v", err)
			}
		})
	}
}

// TestClientCancellationMidComputation pins the 499 domain: an abandoned
// request stops its engine session at a round boundary and surfaces
// ErrCancelled.
func TestClientCancellationMidComputation(t *testing.T) {
	for _, algo := range fusableAlgos {
		t.Run(string(algo), func(t *testing.T) {
			faultpoint.Reset()
			defer faultpoint.Reset()
			if err := faultpoint.Set("round-stall:every=1:delay=5ms"); err != nil {
				t.Fatal(err)
			}
			svc := New(Config{Slots: 1, BatchSize: 1})
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				_, _, err := svc.Do(ctx, &Request{Graph: slowGraph(t), Algo: algo, K: 2, Iterations: 5})
				errc <- err
			}()
			// Wait until the computation holds the slot (it is inside the
			// engine), then abandon it.
			waitUntil(t, func() bool { return svc.Stats().InFlight == 1 })
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, ErrCancelled) {
					t.Fatalf("err = %v, want ErrCancelled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled request never returned — cooperative cancellation failed")
			}
			if st := svc.Stats(); st.Cancelled != 1 {
				t.Fatalf("stats = %+v, want Cancelled=1", st)
			}
		})
	}
}

// TestEstimatedQueueWaitBelowSlotCount pins that the admission estimate
// counts a queue shorter than the slot count: one waiter on two slots
// with a 1s mean session waits half a second.
func TestEstimatedQueueWaitBelowSlotCount(t *testing.T) {
	svc := New(Config{Slots: 2})
	svc.noteSessionDuration(time.Second)
	for i := 0; i < 2; i++ {
		if err := svc.gate.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- svc.gate.Acquire(context.Background()) }()
	waitUntil(t, func() bool { return svc.gate.Waiting() == 1 })
	if got := svc.estimatedQueueWait(); got != 500*time.Millisecond {
		t.Errorf("estimated queue wait = %v, want 500ms", got)
	}
	svc.gate.Release() // hands the slot to the waiter
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	svc.gate.Release()
	svc.gate.Release()
}

// TestShedWhenQueueWaitExceedsDeadline pins the 429 domain: with a known
// mean session time and a queue in front of it, a short-deadline request
// is rejected at admission in microseconds instead of queuing to die.
func TestShedWhenQueueWaitExceedsDeadline(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	svc := New(Config{Slots: 1})
	svc.computeHook = func(req *Request, fp graph.Fingerprint, prior *entry) (*Response, bool, error) {
		started <- struct{}{}
		<-release
		return &Response{Algo: req.Algo, K: req.K, Fingerprint: fp.String()}, false, nil
	}
	// Teach the admission check that sessions take ~1s each.
	svc.noteSessionDuration(time.Second)

	g1 := graph.Gnm(30, 60, graph.NewRand(1))
	g2 := graph.Gnm(30, 60, graph.NewRand(2))
	g3 := graph.Gnm(30, 60, graph.NewRand(3))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // occupies the only slot
		defer wg.Done()
		svc.Do(context.Background(), &Request{Graph: g1, Algo: AlgoDet, K: 2})
	}()
	<-started
	go func() { // queues behind it
		defer wg.Done()
		svc.Do(context.Background(), &Request{Graph: g2, Algo: AlgoDet, K: 2})
	}()
	waitUntil(t, func() bool { return svc.Stats().Queued == 1 })

	// Queue wait estimate: 1 waiter / 1 slot × 1s ≫ 50ms deadline.
	start := time.Now()
	_, _, err := svc.Do(context.Background(), &Request{Graph: g3, Algo: AlgoDet, K: 2, Deadline: 50 * time.Millisecond})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("deadline shed misclassified as queue overflow")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shed took %v — must reject immediately, not queue", d)
	}
	if st := svc.Stats(); st.Shed != 1 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want Shed=1 Rejected=0", st)
	}
	close(release)
	wg.Wait()
}

// TestOverloadedWrapsShed pins that queue overflow is classified under
// the shed domain (both map to 429).
func TestOverloadedWrapsShed(t *testing.T) {
	if !errors.Is(ErrOverloaded, ErrShed) {
		t.Fatal("ErrOverloaded does not wrap ErrShed")
	}
}

// TestDetectorPanicIsolated pins the 503 domain on a direct batch of one,
// for a fused-driver algo and for the unfusable per-item arm: an injected
// detector crash converts to ErrInternal, never caches, and leaves the
// service fully usable once the fault is disarmed.
func TestDetectorPanicIsolated(t *testing.T) {
	g := graph.Gnm(60, 120, graph.NewRand(4))
	for _, req := range []*Request{
		{Graph: g, Algo: AlgoDet, K: 2},
		{Graph: g, Algo: AlgoOdd, K: 2, Seed: 1, Iterations: 2},
	} {
		t.Run(string(req.Algo), func(t *testing.T) {
			faultpoint.Reset()
			defer faultpoint.Reset()
			if err := faultpoint.Set("detector-panic:every=1"); err != nil {
				t.Fatal(err)
			}
			svc := New(Config{Slots: 2, BatchSize: 1})
			_, _, err := svc.Do(context.Background(), req)
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("err = %v, want ErrInternal", err)
			}
			if st := svc.Stats(); st.Panics != 1 || st.InFlight != 0 {
				t.Fatalf("stats = %+v, want Panics=1 InFlight=0", st)
			}
			// Disarm: the same request must now compute (no poisoned cache
			// entry, no stuck in-flight key, no leaked slot).
			faultpoint.Reset()
			if _, src, err := svc.Do(context.Background(), req); err != nil || src != SourceComputed {
				t.Fatalf("post-panic request: source=%q err=%v", src, err)
			}
		})
	}
}

// TestBatchLeaderPanicIsolated pins the 503 domain on the fused path: a
// crash while the batch leader holds the admission slot wakes the leader
// and every rider it took with ErrInternal, releases the slot, and
// poisons nothing.
func TestBatchLeaderPanicIsolated(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	if err := faultpoint.Set("batch-leader-crash:every=1:limit=1"); err != nil {
		t.Fatal(err)
	}
	const B = 3
	svc := New(Config{Slots: 2, BatchSize: 4})
	reqs := make([]*Request, B)
	for i := range reqs {
		reqs[i] = &Request{Graph: graph.Gnm(60, 120, graph.NewRand(uint64(5+i))), Algo: AlgoDet, K: 2}
	}
	for i := 0; i < svc.gate.Slots(); i++ {
		if err := svc.gate.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, B)
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = svc.Do(context.Background(), req)
		}()
	}
	waitUntil(t, func() bool { return svc.gate.Waiting() == B })
	for i := 0; i < svc.gate.Slots(); i++ {
		svc.gate.Release()
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrInternal) {
			t.Errorf("request %d: err = %v, want ErrInternal", i, err)
		}
	}
	if st := svc.Stats(); st.Panics != B || st.InFlight != 0 || st.Queued != 0 || st.MaxBatchSize != B {
		t.Fatalf("stats = %+v, want Panics=%d InFlight=0 Queued=0 MaxBatchSize=%d", st, B, B)
	}
	// limit=1: the next batch runs clean on the same service.
	if _, src, err := svc.Do(context.Background(), reqs[0]); err != nil || src != SourceComputed {
		t.Fatalf("post-crash request: source=%q err=%v", src, err)
	}
}

// TestDrainJobsWaitsForAsyncWork pins graceful drain: DrainJobs blocks
// while a submitted job is still computing, honors its context, and
// returns once the job finishes.
func TestDrainJobsWaitsForAsyncWork(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	svc := New(Config{Slots: 1})
	svc.computeHook = func(req *Request, fp graph.Fingerprint, prior *entry) (*Response, bool, error) {
		started <- struct{}{}
		<-release
		return &Response{Algo: req.Algo, K: req.K, Fingerprint: fp.String()}, false, nil
	}
	g := graph.Gnm(30, 60, graph.NewRand(6))
	id := svc.Submit(&Request{Graph: g, Algo: AlgoDet, K: 2})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := svc.DrainJobs(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DrainJobs with running job = %v, want DeadlineExceeded", err)
	}

	close(release)
	if err := svc.DrainJobs(context.Background()); err != nil {
		t.Fatalf("DrainJobs after release: %v", err)
	}
	job, ok := svc.Job(id)
	if !ok || job.State != JobDone {
		t.Fatalf("job after drain: %+v", job)
	}
}

// TestJobGoroutinePanicContained pins that a panic escaping into the job
// goroutine marks the job failed instead of killing the process.
func TestJobGoroutinePanicContained(t *testing.T) {
	svc := New(Config{Slots: 1})
	svc.computeHook = func(req *Request, fp graph.Fingerprint, prior *entry) (*Response, bool, error) {
		panic("async kaboom")
	}
	g := graph.Gnm(30, 60, graph.NewRand(8))
	id := svc.Submit(&Request{Graph: g, Algo: AlgoDet, K: 2})
	if err := svc.DrainJobs(context.Background()); err != nil {
		t.Fatal(err)
	}
	job, ok := svc.Job(id)
	if !ok || job.State != JobFailed {
		t.Fatalf("job = %+v, want failed", job)
	}
}

// TestDefaultAndMaxDeadline pins deadline resolution: a request with no
// deadline adopts the server default, and MaxDeadline caps explicit
// requests.
func TestDefaultAndMaxDeadline(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	if err := faultpoint.Set("round-stall:every=1:delay=5ms"); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Slots: 1, BatchSize: 1, DefaultDeadline: 25 * time.Millisecond})
	req := &Request{Graph: slowGraph(t), Algo: AlgoEven, K: 2, Iterations: 5}
	if _, _, err := svc.Do(context.Background(), req); !errors.Is(err, ErrDeadline) {
		t.Fatalf("default-deadline err = %v, want ErrDeadline", err)
	}

	svc2 := New(Config{Slots: 1, BatchSize: 1, MaxDeadline: 25 * time.Millisecond})
	req2 := &Request{Graph: slowGraph(t), Algo: AlgoEven, K: 2, Iterations: 5, Deadline: time.Hour}
	if _, _, err := svc2.Do(context.Background(), req2); !errors.Is(err, ErrDeadline) {
		t.Fatalf("capped-deadline err = %v, want ErrDeadline", err)
	}
}

// TestWarmFallbackPanicCountsNoRequest pins that reason="panic" counts
// failed requests, not crashed batches: a warm fallback that crashes
// serves no request, so it moves neither panics nor errors, and
// errors ≥ the attributed reasons keeps holding.
func TestWarmFallbackPanicCountsNoRequest(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	s := New(Config{Slots: 1, BatchSize: 1})
	var edges [][2]graph.NodeID
	for v := graph.NodeID(0); v < 7; v++ {
		edges = append(edges, [2]graph.NodeID{v, v + 1})
	}
	path := graph.FromEdges(8, edges)
	if err := s.CreateCorpus("g", path); err != nil {
		t.Fatal(err)
	}
	if resp, _, err := s.Do(context.Background(), &Request{Graph: path, Algo: AlgoDet, K: 2}); err != nil || resp.Found {
		t.Fatalf("parent detection: resp=%+v err=%v (want NotFound)", resp, err)
	}
	if err := faultpoint.Set("detector-panic:every=1"); err != nil {
		t.Fatal(err)
	}
	// The ball around the closing edge covers the whole path, so the
	// recheck falls back to a full run, which crashes.
	mut, err := s.AddCorpusEdges("g", [][2]graph.NodeID{{0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Fallbacks != 1 || mut.WarmStarts != 0 {
		t.Fatalf("mutation = %+v, want one crashed fallback and no warm start", mut)
	}
	if st := s.Stats(); st.Panics != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want Panics=0 Errors=0", st)
	}
}
