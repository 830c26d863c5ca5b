package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError is the error every waiter of a batch receives when the
// batch's Exec panicked. The panic is contained at the dispatch site —
// dispatch may run on a timer goroutine, where an escaping panic would
// kill the process — and surfaces as an ordinary error carrying the
// recovered value.
type PanicError struct{ Value any }

func (e PanicError) Error() string { return fmt.Sprintf("sched: batch exec panicked: %v", e.Value) }

// Batcher groups concurrent Do calls that share a compatibility key into
// batches and hands each batch to Exec as one unit. The first caller for
// a key opens a batch and arms the linger timer; later callers join until
// the batch fills (MaxBatch), its weight budget is exhausted (MaxWeight),
// or the timer fires — whichever comes first dispatches. The service's
// miss path uses this to fuse compatible detection requests into one
// engine session.
//
// Dispatch runs Exec synchronously on whichever goroutine triggered it
// (the filling caller, the caller whose join split the batch by weight,
// or the timer), mirroring the single-flight leader
// convention: a batch that has started always runs to completion. A
// caller whose context ends while waiting abandons its result but does
// not retract its item — Exec still computes it (and the service still
// caches it).
type Batcher[K comparable, T, R any] struct {
	// MaxBatch caps the number of items per batch; a batch that reaches
	// it dispatches on the filling caller's goroutine.
	MaxBatch int
	// Linger is how long an open batch waits for joiners before
	// dispatching; ≤ 0 dispatches as soon as the timer goroutine runs.
	Linger time.Duration
	// Weight and MaxWeight bound a batch by total item weight (e.g. fused
	// node count): a join that would push the batch past MaxWeight
	// dispatches the open batch and opens a new one. Zero MaxWeight or nil
	// Weight disables the bound.
	Weight    func(T) int
	MaxWeight int
	// Exec computes a batch. It must return one result per item (or an
	// error applied to every item).
	Exec func(key K, items []T) ([]R, error)
	// Observe, when set, receives the fill size of every executed batch
	// (all-abandoned skipped batches are not reported). Purely passive;
	// set before the batcher is shared.
	Observe func(size int)

	mu      sync.Mutex
	pending map[K]*openBatch[T, R]

	skipped atomic.Int64
}

// Skipped reports how many batches were skipped outright because every
// waiter had abandoned them before dispatch (their Exec never ran).
func (b *Batcher[K, T, R]) Skipped() int64 { return b.skipped.Load() }

// openBatch accumulates joiners until dispatch. Each waiter holds its
// item's index and blocks on done; dispatch publishes results/err and
// then closes done, so one broadcast wakes every waiter and the batch
// needs no per-caller channel.
type openBatch[T, R any] struct {
	items  []T
	weight int
	timer  *time.Timer

	done    chan struct{}
	results []R
	err     error

	// abandoned counts waiters whose context ended before dispatch
	// sealed the batch; both sides touch it under Batcher.mu. sealed
	// marks the point past which abandoning no longer matters (dispatch
	// has taken its snapshot).
	abandoned int
	sealed    bool
}

// Do submits one item under the given compatibility key and blocks until
// its batch has been computed (or ctx ends). It returns the item's
// result and the size of the batch it was computed in.
func (b *Batcher[K, T, R]) Do(ctx context.Context, key K, item T) (R, int, error) {
	var zero R
	w := 1
	if b.Weight != nil {
		w = b.Weight(item)
	}

	b.mu.Lock()
	if b.pending == nil {
		b.pending = make(map[K]*openBatch[T, R])
	}
	ob := b.pending[key]
	var full *openBatch[T, R]
	if ob != nil && b.MaxWeight > 0 && ob.weight+w > b.MaxWeight {
		// This item does not fit: the open batch dispatches as-is (below,
		// before this caller waits) and the item opens a fresh one.
		delete(b.pending, key)
		ob.timer.Stop()
		full, ob = ob, nil
	}
	if ob == nil {
		ob = &openBatch[T, R]{done: make(chan struct{})}
		b.pending[key] = ob
		cur := ob
		ob.timer = time.AfterFunc(max(b.Linger, 0), func() {
			b.mu.Lock()
			if b.pending[key] != cur {
				b.mu.Unlock()
				return
			}
			delete(b.pending, key)
			b.mu.Unlock()
			b.dispatch(key, cur)
		})
	}
	idx := len(ob.items)
	ob.items = append(ob.items, item)
	ob.weight += w
	filled := len(ob.items) >= b.MaxBatch
	if filled {
		delete(b.pending, key)
		ob.timer.Stop()
	}
	b.mu.Unlock()
	if full != nil {
		b.dispatch(key, full)
	}
	if filled {
		b.dispatch(key, ob)
	}

	select {
	case <-ob.done:
		if ob.err != nil {
			return zero, len(ob.items), ob.err
		}
		return ob.results[idx], len(ob.items), nil
	case <-ctx.Done():
		// Record the abandonment: if every waiter of this batch leaves
		// before dispatch seals it, the engine run is skipped entirely.
		b.mu.Lock()
		if !ob.sealed {
			ob.abandoned++
		}
		b.mu.Unlock()
		return zero, 0, ctx.Err()
	}
}

// dispatch computes a detached batch, publishes the results, and wakes
// every waiter with one close. Runs on the triggering goroutine; the
// batch is already out of pending, so items cannot grow concurrently and
// the close is the happens-before edge for results/err.
//
// Two failure-domain rules apply. A batch whose every waiter abandoned
// it before this point skips Exec entirely — nobody will read the
// results, so the engine run would be pure waste (a batch with even one
// surviving waiter still computes all items, so the service can cache
// the abandoned ones). And a panicking Exec is contained here: the
// waiters wake with a PanicError instead of hanging on done forever,
// and the panic never unwinds into the timer goroutine.
func (b *Batcher[K, T, R]) dispatch(key K, ob *openBatch[T, R]) {
	b.mu.Lock()
	ob.sealed = true
	allAbandoned := ob.abandoned >= len(ob.items)
	b.mu.Unlock()

	// Registered before the recover fence (deferred functions run in
	// reverse order), so results/err — including a PanicError — are
	// always published before the wake-up broadcast.
	defer close(ob.done)
	if allAbandoned {
		b.skipped.Add(1)
		ob.err = context.Canceled
		return
	}
	defer func() {
		if r := recover(); r != nil {
			ob.results, ob.err = nil, PanicError{Value: r}
		}
	}()
	if b.Observe != nil {
		b.Observe(len(ob.items))
	}
	results, err := b.Exec(key, ob.items)
	if err == nil && len(results) != len(ob.items) {
		err = fmt.Errorf("sched: batch exec returned %d results for %d items", len(results), len(ob.items))
	}
	ob.results, ob.err = results, err
}
