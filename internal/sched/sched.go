package sched

import (
	"runtime"
	"sync"
)

// TrialRunner executes batches of independent trials.
type TrialRunner struct {
	// Workers is the number of trials in flight: 0 or 1 runs trials
	// sequentially on the calling goroutine, negative means GOMAXPROCS.
	Workers int
}

func (r TrialRunner) workers() int {
	if r.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// Result summarizes one batch.
type Result struct {
	// Stopped is the index of the trial whose fold returned true, or -1
	// when the batch ran to completion (or stopped on an error).
	Stopped int
	// Folded is the number of trials folded — the length of the
	// deterministic prefix.
	Folded int
	// Executed is the number of trials actually run, including parallel
	// overshoot past the stopping index. Executed == Folded whenever
	// Workers <= 1.
	Executed int
}

// Run executes trials 0..n-1 through trial and folds their values in index
// order; fold returning true stops the batch (fold may be nil: run
// everything). An error from trial(i) aborts the batch with that error
// after folding trials 0..i-1 — again matching the sequential loop
// regardless of worker count.
func Run[T any](r TrialRunner, n int, trial func(i int) (T, error), fold func(i int, v T) bool) (Result, error) {
	res := Result{Stopped: -1}
	if n <= 0 {
		return res, nil
	}
	w := r.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			v, err := trial(i)
			res.Executed++
			if err != nil {
				return res, err
			}
			res.Folded++
			if fold != nil && fold(i, v) {
				res.Stopped = i
				break
			}
		}
		return res, nil
	}

	// Parallel path: workers pull trial indices in order from a shared
	// cursor with a bounded lookahead ring; the caller's goroutine drains
	// the ring strictly in index order, folding as results become ready.
	// Early stop (or an error) shrinks the bound so no new trial past the
	// decision point is started; in-flight overshoot completes and is
	// dropped.
	type slot struct {
		v     T
		err   error
		ready bool
	}
	ringSize := 4 * w
	ring := make([]slot, ringSize)
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		next     int // next index to hand to a worker
		deliver  int // next index to fold
		bound    = n // exclusive upper bound on indices to start
		executed int
		wg       sync.WaitGroup
	)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for next < bound && next >= deliver+ringSize {
					cond.Wait()
				}
				if next >= bound {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				v, err := trial(i)
				mu.Lock()
				executed++
				sl := &ring[i%ringSize]
				sl.v, sl.err, sl.ready = v, err, true
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}

	var retErr error
	mu.Lock()
	for deliver < bound {
		sl := &ring[deliver%ringSize]
		if !sl.ready {
			cond.Wait()
			continue
		}
		i := deliver
		v, err := sl.v, sl.err
		var zero T
		sl.v, sl.err, sl.ready = zero, nil, false
		deliver++
		if err != nil {
			retErr = err
			bound = i // no further starts; nothing past i is folded
			cond.Broadcast()
			break
		}
		mu.Unlock()
		res.Folded++
		stop := fold != nil && fold(i, v)
		mu.Lock()
		if stop {
			res.Stopped = i
			bound = deliver
			cond.Broadcast()
			break
		}
		cond.Broadcast() // ring slot freed: unblock lookahead-limited workers
	}
	mu.Unlock()
	wg.Wait()
	res.Executed = executed
	return res, retErr
}

// Tag chains its parts through a SplitMix64-style mix into a 64-bit tag.
// Callers use it to give every (trial, subcall) pair a distinct,
// deterministic random seed or engine session tag, so that trials are
// decorrelated yet reproducible under any scheduling.
func Tag(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h ^= p + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
