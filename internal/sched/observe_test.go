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
