package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBatcherFusesConcurrentSubmitters pins that concurrent Do calls under
// one key land in one Exec call (the batch fills before the linger expires)
// and that each caller receives its own item's result and the batch size.
func TestBatcherFusesConcurrentSubmitters(t *testing.T) {
	var execs atomic.Int64
	b := &Batcher[string, int, int]{
		MaxBatch: 4,
		Linger:   time.Second,
		Exec: func(key string, items []int) ([]int, error) {
			execs.Add(1)
			out := make([]int, len(items))
			for i, it := range items {
				out[i] = it * 10
			}
			return out, nil
		},
	}
	var wg sync.WaitGroup
	results := make([]int, 4)
	sizes := make([]int, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, size, err := b.Do(context.Background(), "k", i)
			if err != nil {
				t.Errorf("Do(%d): %v", i, err)
			}
			results[i], sizes[i] = r, size
		}(i)
	}
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("exec calls = %d, want 1", got)
	}
	for i := 0; i < 4; i++ {
		if results[i] != i*10 {
			t.Errorf("result[%d] = %d, want %d", i, results[i], i*10)
		}
		if sizes[i] != 4 {
			t.Errorf("size[%d] = %d, want 4", i, sizes[i])
		}
	}
}

// TestBatcherLingerDispatch pins that a lone submitter is dispatched by the
// linger timer as a batch of one.
func TestBatcherLingerDispatch(t *testing.T) {
	b := &Batcher[string, int, int]{
		MaxBatch: 8,
		Linger:   5 * time.Millisecond,
		Exec: func(key string, items []int) ([]int, error) {
			out := make([]int, len(items))
			for i, it := range items {
				out[i] = it + 1
			}
			return out, nil
		},
	}
	r, size, err := b.Do(context.Background(), "k", 41)
	if err != nil || r != 42 || size != 1 {
		t.Fatalf("Do = (%d, %d, %v), want (42, 1, nil)", r, size, err)
	}
}

// TestBatcherKeysDoNotMix pins that different compatibility keys never
// share a batch.
func TestBatcherKeysDoNotMix(t *testing.T) {
	var mu sync.Mutex
	batches := map[string][][]int{}
	b := &Batcher[string, int, int]{
		MaxBatch: 2,
		Linger:   5 * time.Millisecond,
		Exec: func(key string, items []int) ([]int, error) {
			mu.Lock()
			batches[key] = append(batches[key], append([]int(nil), items...))
			mu.Unlock()
			return make([]int, len(items)), nil
		},
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		for _, key := range []string{"a", "b"} {
			wg.Add(1)
			go func(key string, i int) {
				defer wg.Done()
				if _, _, err := b.Do(context.Background(), key, i); err != nil {
					t.Errorf("Do(%s, %d): %v", key, i, err)
				}
			}(key, i)
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, key := range []string{"a", "b"} {
		n := 0
		for _, items := range batches[key] {
			n += len(items)
		}
		if n != 2 {
			t.Errorf("key %q: %d items across %d batches, want 2", key, n, len(batches[key]))
		}
	}
}

// TestBatcherMaxWeight pins the weight bound: a join that would exceed
// MaxWeight dispatches the open batch and starts a new one.
func TestBatcherMaxWeight(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	release := make(chan struct{})
	b := &Batcher[string, int, int]{
		MaxBatch:  8,
		Linger:    50 * time.Millisecond,
		Weight:    func(it int) int { return it },
		MaxWeight: 100,
		Exec: func(key string, items []int) ([]int, error) {
			mu.Lock()
			sizes = append(sizes, len(items))
			mu.Unlock()
			return make([]int, len(items)), nil
		},
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			if _, _, err := b.Do(context.Background(), "k", 60); err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, s := range sizes {
		if s > 1 {
			t.Errorf("batch of %d items × weight 60 exceeds MaxWeight 100", s)
		}
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 3 {
		t.Errorf("%d items dispatched, want 3", total)
	}
}

// TestBatcherExecError pins that an Exec error reaches every waiter.
func TestBatcherExecError(t *testing.T) {
	boom := errors.New("boom")
	b := &Batcher[string, int, int]{
		MaxBatch: 2,
		Linger:   time.Second,
		Exec: func(key string, items []int) ([]int, error) {
			return nil, boom
		},
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := b.Do(context.Background(), "k", i); !errors.Is(err, boom) {
				t.Errorf("Do(%d) err = %v, want boom", i, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestBatcherCanceledWaiter pins that a caller whose context ends gets
// ctx.Err() promptly, and that a batch whose only waiter abandoned it
// is skipped at dispatch (Exec never runs — see TestBatcherPartial-
// AbandonStillComputesAll for the ≥1-survivor case that does compute).
func TestBatcherCanceledWaiter(t *testing.T) {
	computed := make(chan []int, 1)
	b := &Batcher[string, int, int]{
		MaxBatch: 8,
		Linger:   30 * time.Millisecond,
		Exec: func(key string, items []int) ([]int, error) {
			computed <- append([]int(nil), items...)
			return make([]int, len(items)), nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.Do(ctx, "k", 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.Skipped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fully-abandoned batch never skipped")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case items := <-computed:
		t.Fatalf("abandoned batch computed %v, want skip", items)
	default:
	}
}
