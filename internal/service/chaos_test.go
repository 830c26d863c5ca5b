package service

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/graph"
)

// chaosRequests is a deterministic mixed workload: several graphs across
// both fusable algos, with repeats so cache hits and coalescing occur.
func chaosRequests() []*Request {
	var reqs []*Request
	for i := 0; i < 6; i++ {
		g := graph.Gnm(120, 260, graph.NewRand(uint64(100+i)))
		reqs = append(reqs,
			&Request{Graph: g, Algo: AlgoDet, K: 2},
			&Request{Graph: g, Algo: AlgoEven, K: 2, Iterations: 3, Seed: uint64(i)},
		)
	}
	// Repeat the first few: hits/coalesces under chaos must match too.
	reqs = append(reqs, reqs[0], reqs[1], reqs[2])
	return reqs
}

// marshalResp canonicalizes a response for byte-identity comparison.
func marshalResp(t *testing.T, resp *Response) string {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestChaosReplayByteIdentity is the in-process chaos gate: the same
// workload runs once fault-free (reference) and once under injected
// faults (periodic round stalls plus a bounded number of detector and
// batch-leader crashes). Every request that still succeeds under chaos
// must serialize byte-identically to its reference response — faults may
// fail requests, never corrupt them — and afterwards the service must be
// fully drained: no held slots, no queue, no leaked in-flight keys.
func TestChaosReplayByteIdentity(t *testing.T) {
	reqs := chaosRequests()

	reference := make([]string, len(reqs))
	ref := New(Config{Slots: 2, BatchSize: 4})
	for i, r := range reqs {
		resp, _, err := ref.Do(context.Background(), r)
		if err != nil {
			t.Fatalf("reference request %d: %v", i, err)
		}
		reference[i] = marshalResp(t, resp)
	}

	faultpoint.Reset()
	defer faultpoint.Reset()
	for _, spec := range []string{
		"round-stall:every=7:delay=1ms",
		"detector-panic:every=3:limit=2",
		"batch-leader-crash:every=4:limit=2",
	} {
		if err := faultpoint.Set(spec); err != nil {
			t.Fatal(err)
		}
	}

	chaos := New(Config{Slots: 2, BatchSize: 4})
	type outcome struct {
		body string
		err  error
	}
	outcomes := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _, err := chaos.Do(context.Background(), r)
			if err != nil {
				outcomes[i] = outcome{err: err}
				return
			}
			outcomes[i] = outcome{body: marshalResp(t, resp)}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos replay hung — a fault left a request stuck")
	}

	var failed int
	for i, out := range outcomes {
		if out.err != nil {
			// Every chaos-induced failure must carry the taxonomy, not a
			// raw panic or context error.
			if !errors.Is(out.err, ErrInternal) {
				t.Errorf("request %d failed outside the taxonomy: %v", i, out.err)
			}
			failed++
			continue
		}
		if out.body != reference[i] {
			t.Errorf("request %d diverged under chaos:\nchaos: %s\nref:   %s", i, out.body, reference[i])
		}
	}
	t.Logf("chaos replay: %d/%d failed with contained errors, fired=%v", failed, len(reqs), faultpoint.Fired())

	// The faults must actually have fired — otherwise this gate tests
	// nothing.
	fired := faultpoint.Fired()
	if fired[faultpoint.DetectorPanic] == 0 && fired[faultpoint.BatchLeaderCrash] == 0 {
		t.Fatal("no crash faultpoint fired; chaos run exercised nothing")
	}

	// Drained: no leaked slots, queue empty, panics accounted.
	st := chaos.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("service not drained after chaos: %+v", st)
	}
	if st.Panics == 0 {
		t.Fatalf("stats recorded no panics despite fired=%v", fired)
	}

	// Recovery: with faults disarmed, every request that failed under
	// chaos now succeeds and matches the reference — nothing was
	// poisoned.
	faultpoint.Reset()
	for i, out := range outcomes {
		if out.err == nil {
			continue
		}
		resp, _, err := chaos.Do(context.Background(), reqs[i])
		if err != nil {
			t.Fatalf("post-chaos retry %d: %v", i, err)
		}
		if got := marshalResp(t, resp); got != reference[i] {
			t.Fatalf("post-chaos retry %d diverged:\ngot: %s\nref: %s", i, got, reference[i])
		}
	}
}
