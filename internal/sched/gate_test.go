package sched

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGateBoundsConcurrency(t *testing.T) {
	const slots, workers, perWorker = 3, 16, 20
	g := NewGate(slots)
	var cur, peak, total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := g.Acquire(context.Background()); err != nil {
					t.Error(err)
					return
				}
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				total.Add(1)
				cur.Add(-1)
				g.Release()
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > slots {
		t.Fatalf("peak concurrency %d exceeds %d slots", got, slots)
	}
	if got := total.Load(); got != workers*perWorker {
		t.Fatalf("completed %d acquisitions, want %d", got, workers*perWorker)
	}
	if g.InUse() != 0 || g.Waiting() != 0 {
		t.Fatalf("gate not drained: inUse=%d waiting=%d", g.InUse(), g.Waiting())
	}
}

// TestGateFIFO fills the gate, queues waiters in a known order, and checks
// grants come back in exactly that order.
func TestGateFIFO(t *testing.T) {
	g := NewGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	const n = 8
	order := make(chan int, n)
	var started sync.WaitGroup
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		started.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Serialize queue entry so arrival order is deterministic.
			started.Done()
			if err := g.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			order <- i
			g.Release()
		}(i)
		started.Wait()
		waitUntil(t, func() bool { return g.Waiting() == i+1 })
	}
	g.Release()
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("grant order: got waiter %d at position %d", got, want)
		}
		want++
	}
}

func TestGateAcquireCancel(t *testing.T) {
	g := NewGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- g.Acquire(ctx)
	}()
	waitUntil(t, func() bool { return g.Waiting() == 1 })
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("canceled Acquire returned %v", err)
	}
	waitUntil(t, func() bool { return g.Waiting() == 0 })
	// The held slot is unaffected; releasing it leaves a fully free gate.
	g.Release()
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire on a free gate: %v", err)
	}
	g.Release()
	if g.InUse() != 0 || g.Waiting() != 0 {
		t.Fatalf("gate not drained: inUse=%d waiting=%d", g.InUse(), g.Waiting())
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// joinResult is what one Join returned.
type joinResult struct {
	riders []any
	taken  bool
	err    error
}

// joinAsync starts a Join and waits until it has queued, so a test's
// arrival order is the order of its joinAsync calls.
func joinAsync(t *testing.T, g *Gate, ctx context.Context, key any, weight int, val any) <-chan joinResult {
	t.Helper()
	queued := g.Waiting()
	out := make(chan joinResult, 1)
	go func() {
		riders, taken, err := g.Join(ctx, key, weight, val)
		out <- joinResult{riders, taken, err}
	}()
	waitUntil(t, func() bool { return g.Waiting() == queued+1 })
	return out
}

// TestGateBatchTakesSameKeyFIFO pins the batching rule: a grant takes
// the queued waiters with its own key, in FIFO order, up to MaxBatch and
// skipping any that would exceed MaxWeight, and every waiter it does not
// take keeps its place in the queue.
func TestGateBatchTakesSameKeyFIFO(t *testing.T) {
	g := NewGate(1)
	g.MaxBatch, g.MaxWeight = 3, 10
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	lead := joinAsync(t, g, bg, "a", 1, "lead")
	other := joinAsync(t, g, bg, "b", 1, "other")
	r1 := joinAsync(t, g, bg, "a", 1, "r1")
	heavy := joinAsync(t, g, bg, "a", 9, "heavy") // 1+1+9 > 10: skipped
	r2 := joinAsync(t, g, bg, "a", 1, "r2")       // fills MaxBatch
	r3 := joinAsync(t, g, bg, "a", 1, "r3")
	plain := make(chan error, 1)
	go func() { plain <- g.Acquire(bg) }()
	waitUntil(t, func() bool { return g.Waiting() == 7 })

	g.Release()
	got := <-lead
	if got.err != nil || got.taken || !reflect.DeepEqual(got.riders, []any{"r1", "r2"}) {
		t.Fatalf("lead = %+v, want leader of [r1 r2]", got)
	}
	for _, r := range []<-chan joinResult{r1, r2} {
		if res := <-r; res.err != nil || !res.taken || res.riders != nil {
			t.Fatalf("rider = %+v, want taken", res)
		}
	}
	if n := g.Waiting(); n != 4 {
		t.Fatalf("Waiting = %d after the grant, want 4 (other, heavy, r3, plain)", n)
	}

	// The rest is granted in arrival order: other alone (no other "b"),
	// then heavy, which now takes r3, then the plain Acquire.
	g.Release()
	if res := <-other; res.err != nil || res.taken || len(res.riders) != 0 {
		t.Fatalf("other = %+v, want leader of nothing", res)
	}
	g.Release()
	if res := <-heavy; res.err != nil || res.taken || !reflect.DeepEqual(res.riders, []any{"r3"}) {
		t.Fatalf("heavy = %+v, want leader of [r3]", res)
	}
	if res := <-r3; !res.taken {
		t.Fatalf("r3 = %+v, want taken", res)
	}
	g.Release()
	if err := <-plain; err != nil {
		t.Fatal(err)
	}
	g.Release()
	if g.InUse() != 0 || g.Waiting() != 0 {
		t.Fatalf("gate not drained: inUse=%d waiting=%d", g.InUse(), g.Waiting())
	}
}

// TestGateBatchOffAndNilKey pins the two ways a grant takes nobody: a
// gate with MaxBatch ≤ 1, and a waiter with a nil key (Acquire).
func TestGateBatchOffAndNilKey(t *testing.T) {
	for _, c := range []struct {
		name     string
		maxBatch int
		key      any
	}{
		{"max-batch-1", 1, "a"},
		{"nil-key", 8, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := NewGate(1)
			g.MaxBatch = c.maxBatch
			if err := g.Acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
			first := joinAsync(t, g, context.Background(), c.key, 1, 1)
			second := joinAsync(t, g, context.Background(), c.key, 1, 2)
			for _, r := range []<-chan joinResult{first, second} {
				g.Release()
				if res := <-r; res.err != nil || res.taken || len(res.riders) != 0 {
					t.Fatalf("join = %+v, want a leader of nothing", res)
				}
			}
			g.Release()
		})
	}
}

// TestGateBatchCancelBeforeTaken pins that a waiter whose context ends
// while it queues leaves without a slot and is taken by no batch.
func TestGateBatchCancelBeforeTaken(t *testing.T) {
	g := NewGate(1)
	g.MaxBatch = 8
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	lead := joinAsync(t, g, context.Background(), "a", 1, "lead")
	ctx, cancel := context.WithCancel(context.Background())
	quitter := joinAsync(t, g, ctx, "a", 1, "quitter")
	cancel()
	if res := <-quitter; res.err != context.Canceled || res.taken {
		t.Fatalf("quitter = %+v, want context.Canceled", res)
	}
	waitUntil(t, func() bool { return g.Waiting() == 1 })
	g.Release()
	if res := <-lead; res.err != nil || len(res.riders) != 0 {
		t.Fatalf("lead = %+v, want leader of nothing", res)
	}
	g.Release()
	if g.InUse() != 0 || g.Waiting() != 0 {
		t.Fatalf("gate not drained: inUse=%d waiting=%d", g.InUse(), g.Waiting())
	}
}

// TestGateBatchStorm races batching joins under a few keys against
// cancellations and checks the books: every joiner is exactly one of
// leader, rider of exactly one leader, or canceled; no batch exceeds
// MaxBatch or mixes keys; no slot is leaked.
func TestGateBatchStorm(t *testing.T) {
	const slots, joiners, keys = 2, 300, 3
	g := NewGate(slots)
	g.MaxBatch = 4
	type item struct{ id, key int }
	ctx, cancel := context.WithCancel(context.Background())
	var (
		mu       sync.Mutex
		leaders  int
		riders   = map[int]int{} // item id → times taken
		taken    atomic.Int64
		canceled atomic.Int64
		wg       sync.WaitGroup
	)
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(it item) {
			defer wg.Done()
			jctx := context.Background()
			if it.id%3 == 0 {
				jctx = ctx
			}
			rs, wasTaken, err := g.Join(jctx, it.key, 1, it)
			switch {
			case err != nil:
				canceled.Add(1)
			case wasTaken:
				taken.Add(1)
			default:
				if 1+len(rs) > g.MaxBatch {
					t.Errorf("batch of %d exceeds MaxBatch", 1+len(rs))
				}
				mu.Lock()
				leaders++
				for _, r := range rs {
					if r.(item).key != it.key {
						t.Errorf("leader key %d took rider key %d", it.key, r.(item).key)
					}
					riders[r.(item).id]++
				}
				mu.Unlock()
				time.Sleep(50 * time.Microsecond)
				g.Release()
			}
		}(item{i, i % keys})
		if i == joiners/2 {
			cancel()
		}
	}
	wg.Wait()
	cancel()
	for id, n := range riders {
		if n != 1 {
			t.Errorf("item %d taken %d times", id, n)
		}
	}
	if int64(len(riders)) != taken.Load() {
		t.Errorf("%d items taken by leaders, %d joiners returned taken", len(riders), taken.Load())
	}
	if got := int64(leaders) + taken.Load() + canceled.Load(); got != joiners {
		t.Errorf("accounted for %d joiners, want %d", got, joiners)
	}
	if g.InUse() != 0 || g.Waiting() != 0 {
		t.Fatalf("gate not drained: inUse=%d waiting=%d", g.InUse(), g.Waiting())
	}
}

// The three TestBatcher* tests below keep the names of the tests of the
// deleted sched.Batcher; they pin the same three rules, now kept by a
// Gate grant.

// TestBatcherFusesConcurrentSubmitters pins that concurrent joins under
// one key, queued behind a busy slot, land in one batch: one grant leads
// and takes every other joiner exactly once.
func TestBatcherFusesConcurrentSubmitters(t *testing.T) {
	const n = 4
	g := NewGate(1)
	g.MaxBatch = n
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	results := make([]joinResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			riders, taken, err := g.Join(context.Background(), "k", 1, i)
			results[i] = joinResult{riders, taken, err}
		}(i)
	}
	waitUntil(t, func() bool { return g.Waiting() == n })
	g.Release()
	wg.Wait()
	leaders, seen := 0, map[int]int{}
	for i, r := range results {
		switch {
		case r.err != nil:
			t.Fatalf("join %d: %v", i, r.err)
		case r.taken:
			if r.riders != nil {
				t.Errorf("rider %d got riders %v", i, r.riders)
			}
		default:
			leaders++
			seen[i]++
			for _, v := range r.riders {
				seen[v.(int)]++
			}
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1 batch of %d", leaders, n)
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Errorf("joiner %d is in the batch %d times, want 1", i, seen[i])
		}
	}
	g.Release()
	if g.InUse() != 0 || g.Waiting() != 0 {
		t.Fatalf("gate not drained: inUse=%d waiting=%d", g.InUse(), g.Waiting())
	}
}

// TestBatcherKeysDoNotMix pins that different keys never share a batch:
// with joiners of two keys interleaved in the queue, each grant takes
// only the joiners of its own key.
func TestBatcherKeysDoNotMix(t *testing.T) {
	g := NewGate(1)
	g.MaxBatch = 4
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	a1 := joinAsync(t, g, bg, "a", 1, "a1")
	b1 := joinAsync(t, g, bg, "b", 1, "b1")
	a2 := joinAsync(t, g, bg, "a", 1, "a2")
	b2 := joinAsync(t, g, bg, "b", 1, "b2")
	for _, c := range []struct {
		lead, rider <-chan joinResult
		want        []any
	}{
		{a1, a2, []any{"a2"}},
		{b1, b2, []any{"b2"}},
	} {
		g.Release()
		if res := <-c.lead; res.err != nil || res.taken || !reflect.DeepEqual(res.riders, c.want) {
			t.Fatalf("leader = %+v, want leader of %v", res, c.want)
		}
		if res := <-c.rider; res.err != nil || !res.taken {
			t.Fatalf("rider = %+v, want taken", res)
		}
	}
	g.Release()
	if g.InUse() != 0 || g.Waiting() != 0 {
		t.Fatalf("gate not drained: inUse=%d waiting=%d", g.InUse(), g.Waiting())
	}
}

// TestBatcherMaxWeight pins the weight bound: joiners whose summed
// weight would exceed MaxWeight are not taken together, and each runs
// as a batch of its own, in arrival order.
func TestBatcherMaxWeight(t *testing.T) {
	g := NewGate(1)
	g.MaxBatch, g.MaxWeight = 8, 100
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var joins []<-chan joinResult
	for i := 0; i < 3; i++ {
		joins = append(joins, joinAsync(t, g, context.Background(), "k", 60, i))
	}
	for i, j := range joins {
		g.Release()
		if res := <-j; res.err != nil || res.taken || len(res.riders) != 0 {
			t.Fatalf("join %d = %+v, want a leader of nothing (60+60 > 100)", i, res)
		}
		if want := len(joins) - 1 - i; g.Waiting() != want {
			t.Fatalf("Waiting = %d after grant %d, want %d", g.Waiting(), i, want)
		}
	}
	g.Release()
	if g.InUse() != 0 || g.Waiting() != 0 {
		t.Fatalf("gate not drained: inUse=%d waiting=%d", g.InUse(), g.Waiting())
	}
}
