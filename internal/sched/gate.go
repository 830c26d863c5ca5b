package sched

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Gate is a bounded, FIFO-fair admission semaphore. The detection service
// layers it over TrialRunner: every request acquires one of Slots
// computation slots before it may spend engine-session work, so a burst of
// expensive requests queues instead of oversubscribing the host, and slots
// are granted strictly in arrival order — a stream of cheap requests
// cannot starve an earlier expensive one (fairness across sessions).
//
// The queue is also where batches form (see Join): a waiter granted a
// slot takes the queued waiters that share its key along with it, so work
// that queued while every slot was busy runs as one unit, and work that
// finds a free slot runs at once.
//
// Waiting is context-aware: a canceled waiter leaves the queue without
// consuming a slot. The zero value is not usable; call NewGate.
type Gate struct {
	// Observe, when set, receives the queue-wait duration of every
	// granted Acquire or Join (zero for fast-path grants; canceled and
	// taken waiters are not reported). Purely passive; set before the
	// gate is shared, like an engine field. The disarmed cost is one
	// nil-check per grant.
	Observe func(wait time.Duration)
	// MaxBatch and MaxWeight bound the batch one grant forms: at most
	// MaxBatch waiters, the granted one included, of total weight at
	// most MaxWeight (0 leaves the weight unbounded). MaxBatch ≤ 1 takes
	// no riders. Set before the gate is shared.
	MaxBatch  int
	MaxWeight int

	mu      sync.Mutex
	slots   int
	inUse   int
	waiters []*waiter // FIFO
}

// waiter is one queued Acquire or Join.
type waiter struct {
	key    any // nil never batches
	weight int
	val    any
	ready  chan struct{} // closed when the waiter is granted or taken
	// Set before ready closes: taken as a rider, or granted with riders.
	taken  bool
	riders []any
}

// NewGate returns a gate with the given number of slots (minimum 1).
func NewGate(slots int) *Gate {
	if slots < 1 {
		slots = 1
	}
	return &Gate{slots: slots}
}

// Slots returns the gate's capacity.
func (g *Gate) Slots() int { return g.slots }

// InUse returns the number of currently held slots.
func (g *Gate) InUse() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inUse
}

// Waiting returns the current queue length.
func (g *Gate) Waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.waiters)
}

// Acquire blocks until a slot is granted (FIFO order) or ctx is done, in
// which case it returns ctx's error without holding a slot.
func (g *Gate) Acquire(ctx context.Context) error {
	_, _, err := g.Join(ctx, nil, 0, nil)
	return err
}

// Join is Acquire for batchable work: it queues val under key, with the
// given weight, and returns in one of two roles.
//
//   - Leader (err nil, taken false): the waiter holds a slot, as after
//     Acquire, and must Release it. riders are the values of the queued
//     waiters its grant took: those with an equal key, in FIFO order, up
//     to MaxBatch in all, skipping any whose weight would push the batch
//     past MaxWeight. The taken waiters leave the queue, so they only
//     ever move earlier; every other waiter keeps its place.
//   - Rider (taken true): another waiter's grant took this one. It holds
//     no slot; the leader computes val.
//
// A waiter whose ctx ends before it is granted or taken leaves the queue
// and returns ctx's error; once taken, or granted with riders, it keeps
// its role. A nil key never batches, and Join then acts as Acquire. Keys
// are compared with ==, so they must be comparable.
func (g *Gate) Join(ctx context.Context, key any, weight int, val any) (riders []any, taken bool, err error) {
	g.mu.Lock()
	if g.inUse < g.slots && len(g.waiters) == 0 {
		g.inUse++
		g.mu.Unlock()
		if g.Observe != nil {
			g.Observe(0)
		}
		return nil, false, nil
	}
	var enqueued time.Time
	if g.Observe != nil {
		enqueued = time.Now()
	}
	w := &waiter{key: key, weight: weight, val: val, ready: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()

	select {
	case <-w.ready:
	case <-ctx.Done():
		if err := g.leave(w, ctx.Err()); err != nil {
			return nil, false, err
		}
	}
	if w.taken {
		return nil, true, nil
	}
	if g.Observe != nil {
		g.Observe(time.Since(enqueued))
	}
	return w.riders, false, nil
}

// leave withdraws w, whose context ended with err, and returns err —
// unless w is already past the queue with work to do: taken as a rider
// (its leader computes it) or granted with riders (they wait on its
// batch), which it returns nil for. A grant that took no riders raced
// the cancellation; the slot passes on.
func (g *Gate) leave(w *waiter, err error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, q := range g.waiters {
		if q == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return err
		}
	}
	if w.taken || len(w.riders) > 0 {
		return nil
	}
	g.releaseLocked()
	return err
}

// takeLocked removes from the queue, and wakes as riders, the waiters the
// grant of lead takes with it (see Join).
func (g *Gate) takeLocked(lead *waiter) []any {
	if lead.key == nil || g.MaxBatch <= 1 {
		return nil
	}
	var riders []any
	weight := lead.weight
	kept := g.waiters[:0]
	for i, w := range g.waiters {
		if 1+len(riders) >= g.MaxBatch {
			kept = append(kept, g.waiters[i:]...)
			break
		}
		if w.key != lead.key || g.MaxWeight > 0 && weight+w.weight > g.MaxWeight {
			kept = append(kept, w)
			continue
		}
		weight += w.weight
		riders = append(riders, w.val)
		w.taken = true
		close(w.ready)
	}
	clear(g.waiters[len(kept):])
	g.waiters = kept
	return riders
}

// Release returns a slot, granting it to the head waiter if any. Releasing
// an unheld slot panics — that is always a caller bug.
func (g *Gate) Release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.releaseLocked()
}

func (g *Gate) releaseLocked() {
	if g.inUse <= 0 {
		panic(fmt.Sprintf("sched: Gate.Release without Acquire (inUse=%d)", g.inUse))
	}
	if len(g.waiters) > 0 {
		// Hand the slot directly to the head waiter: inUse stays constant,
		// so FIFO order is preserved without a wakeup race. The grant
		// takes its batch at once, so the queue is final on return.
		head := g.waiters[0]
		g.waiters[0] = nil
		g.waiters = g.waiters[1:]
		head.riders = g.takeLocked(head)
		close(head.ready)
		return
	}
	g.inUse--
}
