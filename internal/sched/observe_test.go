package sched

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestGateObserveWaitTimes pins the Gate hook: fast-path grants report a
// zero wait, queued grants report how long they actually queued, and
// canceled waiters report nothing.
func TestGateObserveWaitTimes(t *testing.T) {
	g := NewGate(1)
	var mu sync.Mutex
	var waits []time.Duration
	g.Observe = func(w time.Duration) {
		mu.Lock()
		waits = append(waits, w)
		mu.Unlock()
	}

	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(waits) != 1 || waits[0] != 0 {
		t.Fatalf("fast-path waits = %v, want [0]", waits)
	}
	mu.Unlock()

	// A queued waiter: release after a measurable hold.
	done := make(chan error, 1)
	go func() { done <- g.Acquire(context.Background()) }()
	for g.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	hold := 10 * time.Millisecond
	time.Sleep(hold)
	g.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(waits) != 2 {
		t.Fatalf("got %d observations, want 2", len(waits))
	}
	if waits[1] < hold/2 {
		t.Fatalf("queued wait = %v, want ≥ %v", waits[1], hold/2)
	}
	mu.Unlock()

	// A canceled waiter must not be reported.
	ctx, cancel := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() { done2 <- g.Acquire(ctx) }()
	for g.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done2; err == nil {
		t.Fatal("canceled Acquire returned nil")
	}
	mu.Lock()
	if len(waits) != 2 {
		t.Fatalf("canceled waiter was observed: %v", waits)
	}
	mu.Unlock()
	g.Release()
}

// TestBatcherObserveFillSizes pins the Batcher hook: one observation per
// executed batch carrying its fill size, and none for all-abandoned
// skipped batches.
func TestBatcherObserveFillSizes(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	b := &Batcher[string, int, int]{
		MaxBatch: 4,
		Linger:   time.Hour, // only explicit fills dispatch
		Exec: func(key string, items []int) ([]int, error) {
			out := make([]int, len(items))
			copy(out, items)
			return out, nil
		},
		Observe: func(size int) {
			mu.Lock()
			sizes = append(sizes, size)
			mu.Unlock()
		},
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, n, err := b.Do(context.Background(), "k", i); err != nil || n != 4 {
				t.Errorf("Do = (n=%d, err=%v), want batch of 4", n, err)
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	if len(sizes) != 1 || sizes[0] != 4 {
		t.Fatalf("sizes = %v, want [4]", sizes)
	}
	mu.Unlock()

	// All waiters abandon before the linger fires: skipped, not observed.
	quick := &Batcher[string, int, int]{
		MaxBatch: 4,
		Linger:   30 * time.Millisecond,
		Exec:     b.Exec,
		Observe:  b.Observe,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := quick.Do(ctx, "k", 1); err == nil {
		t.Fatal("abandoned Do returned nil error")
	}
	time.Sleep(80 * time.Millisecond) // let the linger timer fire and skip
	if quick.Skipped() != 1 {
		t.Fatalf("Skipped = %d, want 1", quick.Skipped())
	}
	mu.Lock()
	if len(sizes) != 1 {
		t.Fatalf("skipped batch was observed: %v", sizes)
	}
	mu.Unlock()
}
