package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count returns to within slack
// of base, failing the test if it never does — the leak detector for
// mass-cancellation storms.
func waitGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGateMassCancellation cancels a storm of queued waiters while the
// slot holders churn, then checks the gate's books balance: no waiter
// leaks a goroutine, no slot is double-granted, and the gate drains to
// idle.
func TestGateMassCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewGate(2)

	// Fill both slots so every storm waiter actually queues.
	for i := 0; i < 2; i++ {
		if err := g.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	const storm = 200
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var acquired, canceled atomic.Int64
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Acquire(ctx); err != nil {
				canceled.Add(1)
				return
			}
			acquired.Add(1)
			g.Release()
		}()
	}
	// Let the queue build, then cancel the whole storm while releasing
	// the two held slots — grants race cancellations in both orders.
	for g.Waiting() < storm/2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	g.Release()
	g.Release()
	wg.Wait()

	if got := acquired.Load() + canceled.Load(); got != storm {
		t.Fatalf("accounted for %d waiters, want %d", got, storm)
	}
	if n := g.InUse(); n != 0 {
		t.Fatalf("InUse = %d after drain, want 0", n)
	}
	if n := g.Waiting(); n != 0 {
		t.Fatalf("Waiting = %d after drain, want 0", n)
	}
	// The gate must still work (no lost slot): acquire all slots again.
	for i := 0; i < 2; i++ {
		ctx2, c2 := context.WithTimeout(context.Background(), time.Second)
		if err := g.Acquire(ctx2); err != nil {
			t.Fatalf("post-storm Acquire %d: %v", i, err)
		}
		c2()
		defer g.Release()
	}
	waitGoroutines(t, base, 4)
}

// TestGateSurvivorFIFOUnderCancellation cancels every other queued
// waiter and checks the survivors are granted strictly in arrival order.
func TestGateSurvivorFIFOUnderCancellation(t *testing.T) {
	g := NewGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	const n = 20
	type waiter struct {
		idx    int
		cancel context.CancelFunc
		got    chan error
	}
	var ws []waiter
	var order []int
	var orderMu sync.Mutex
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		w := waiter{idx: i, cancel: cancel, got: make(chan error, 1)}
		ws = append(ws, w)
		go func() {
			err := g.Acquire(ctx)
			if err == nil {
				orderMu.Lock()
				order = append(order, w.idx)
				orderMu.Unlock()
			}
			w.got <- err
		}()
		// Serialize enqueue so arrival order is the spawn order.
		for g.Waiting() < i+1 {
			time.Sleep(time.Millisecond)
		}
	}

	// Cancel the odd-indexed waiters, then drain: each surviving grant
	// is released immediately so the next survivor is granted.
	for i := 1; i < n; i += 2 {
		ws[i].cancel()
		if err := <-ws[i].got; err == nil {
			t.Fatalf("canceled waiter %d acquired", i)
		}
	}
	g.Release() // release the initial hold; survivors now flow
	for i := 0; i < n; i += 2 {
		if err := <-ws[i].got; err != nil {
			t.Fatalf("surviving waiter %d: %v", i, err)
		}
		g.Release()
	}
	for _, w := range ws {
		w.cancel()
	}

	orderMu.Lock()
	defer orderMu.Unlock()
	for j := 1; j < len(order); j++ {
		if order[j] < order[j-1] {
			t.Fatalf("survivors granted out of FIFO order: %v", order)
		}
	}
	if len(order) != n/2 {
		t.Fatalf("%d survivors granted, want %d", len(order), n/2)
	}
}
