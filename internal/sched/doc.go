// Package sched is the shared trial scheduler of the simulation runtime:
// every detector and every bench sweep in this repository repeats
// independent simulation sessions — Algorithm 1 repeats K colored-BFS
// iterations, the quantum layer amplifies a low-probability detector over
// many attempts, experiments sweep (n, seed) grids — and this package runs
// those N independent trials across a bounded worker pool with results
// that are bit-identical to the sequential loop.
//
// Determinism contract. Run behaves observably like
//
//	for i := 0; i < n; i++ {
//	    v, err := trial(i)
//	    if err != nil { return err }
//	    if fold(i, v) { break }
//	}
//
// for every worker count: fold is invoked sequentially, in trial-index
// order, on exactly the prefix of trials up to and including the first one
// whose fold returns true (the "hit"). Parallel execution may speculatively
// run trials past the hit (overshoot); their results are discarded, never
// folded, so aggregates built inside fold are reproducible bit for bit.
//
// Trials must be independent: trial(i) may not observe state written by
// trial(j). Determinism inside one trial is the trial's own business —
// detectors achieve it by deriving all randomness from Tag(seed, i, ...).
//
// Gate complements TrialRunner for long-running servers: a FIFO-fair,
// context-aware admission semaphore that bounds how many computations run
// at once (the detection service admits every request through one before
// spending engine work, so bursts queue in arrival order instead of
// oversubscribing the host). Its queue is also where the service's fused
// batches form: a waiter granted a slot takes the queued waiters that share
// its key with it (Join).
package sched
