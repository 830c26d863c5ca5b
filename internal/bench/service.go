package bench

// S1 — the service-layer scenario family: a mixed planted/C-free corpus
// replayed against internal/service with varying worker counts and
// distinct-graph mixes. The table reports only *deterministic* quantities
// (request counts, engine sessions, saved work, hit ratios, verdicts):
// EXPERIMENTS.md must regenerate byte-identically, and wall-clock numbers
// are host noise. The invariant the table certifies is the service
// contract itself — engine sessions == distinct keys however many workers
// race (single-flight + cache make computation at-most-once per key), and
// deterministic-mode responses byte-identical across worker counts.
// Throughput/latency for the same scenario family is measured out of band
// by the end-to-end benchmark (benchmark/, `bash benchmark/run.sh`).

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/service"
)

// s1Corpus builds the mixed corpus: half planted C_4 instances, half
// C_4-free high-girth instances, all distinct.
func s1Corpus(distinct int, n int, seed uint64) ([]*graph.Graph, error) {
	gs := make([]*graph.Graph, 0, distinct)
	for i := 0; i < distinct; i++ {
		gseed := seed + uint64(i)*1000
		if i%2 == 0 {
			g, _, err := graph.PlantedLight(n, 4, 1.5, graph.NewRand(gseed))
			if err != nil {
				return nil, err
			}
			gs = append(gs, g)
		} else {
			gs = append(gs, graph.HighGirth(n, 3*n/2, 6, graph.NewRand(gseed)))
		}
	}
	return gs, nil
}

// s1Point replays `requests` requests over the corpus from `clients`
// closed-loop goroutines against a fresh service with the given config,
// returning the stats and the per-graph response bodies. mkReq maps a
// corpus index to its request.
func s1Point(gs []*graph.Graph, requests, clients int, svcCfg service.Config, mkReq func(gi int) *service.Request) (service.Stats, map[int][]byte, int, error) {
	svc := service.New(svcCfg)
	bodies := make(map[int][]byte, len(gs))
	found := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	next := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= requests {
					return
				}
				gi := i % len(gs)
				resp, _, err := svc.Do(context.Background(), mkReq(gi))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					body, merr := json.Marshal(resp)
					if merr != nil && firstErr == nil {
						firstErr = merr
					}
					if prev, ok := bodies[gi]; ok {
						if string(prev) != string(body) && firstErr == nil {
							firstErr = fmt.Errorf("graph %d: responses differ across serves", gi)
						}
					} else {
						bodies[gi] = body
						if resp.Found {
							found++
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return svc.Stats(), bodies, found, firstErr
}

// S1 runs the detection-service scenario family: worker count × corpus
// mix, deterministic counters only (see the file comment).
func S1(cfg Config) (*Table, error) {
	n, requests, clients := 1200, 240, 8
	workerSweep := []int{1, 2, 8}
	mixSweep := []int{4, 12}
	if cfg.Quick {
		n, requests, clients = 300, 60, 4
		workerSweep = []int{1, 4}
		mixSweep = []int{2, 6}
	}
	tab := &Table{
		ID:    "S1",
		Title: "detection service: saved work vs worker count × corpus mix (deterministic counters)",
		Header: []string{"slots", "distinct", "requests", "engine sessions", "saved", "hit ratio",
			"planted found", "at-most-once", "det identical"},
	}
	for _, distinct := range mixSweep {
		gs, err := s1Corpus(distinct, n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		// Responses must be byte-identical not just across serves within a
		// point but across worker counts too.
		var ref map[int][]byte
		for _, slots := range workerSweep {
			// BatchSize 1 pins the solo miss path: the at-most-once column is
			// the exact session count, which fused batching would (correctly)
			// shrink by a timing-dependent amount; S2 certifies the batched
			// path through its timing-independent invariants instead.
			st, bodies, found, err := s1Point(gs, requests, clients,
				service.Config{Slots: slots, CacheEntries: 4 * len(gs), BatchSize: 1},
				func(gi int) *service.Request {
					return &service.Request{Graph: gs[gi], Algo: service.AlgoDet, K: 2}
				})
			if err != nil {
				return nil, fmt.Errorf("S1 slots=%d distinct=%d: %w", slots, distinct, err)
			}
			atMostOnce := st.EngineSessions == int64(distinct)
			identical := true
			if ref == nil {
				ref = bodies
			} else {
				for gi, body := range bodies {
					if string(ref[gi]) != string(body) {
						identical = false
					}
				}
			}
			saved := st.Hits + st.Coalesced
			tab.AddRow(itoa(slots), itoa(distinct), itoa(requests),
				itoa(int(st.EngineSessions)), itoa(int(saved)),
				f(float64(saved)/float64(st.Requests)),
				itoa(found),
				fmt.Sprintf("%v", atMostOnce), fmt.Sprintf("%v", identical))
			if !atMostOnce {
				return nil, fmt.Errorf("S1 slots=%d distinct=%d: %d engine sessions for %d keys",
					slots, distinct, st.EngineSessions, distinct)
			}
			if !identical {
				return nil, fmt.Errorf("S1 slots=%d distinct=%d: det responses differ across worker counts",
					slots, distinct)
			}
		}
	}
	tab.AddNote("requests replay a mixed planted-C4 / C4-free corpus in det mode from %d closed-loop clients; "+
		"saved = hits + coalesced (the split between the two depends on scheduling and is deliberately not tabled)", clients)
	tab.AddNote("at-most-once: engine sessions == distinct graphs — the single-flight + fingerprint-cache contract under concurrency")
	tab.AddNote("wall-clock throughput/latency for this family is measured against cycleserved by the end-to-end " +
		"benchmark (bash benchmark/run.sh, workloads hit-corpus and miss-det-open); this table pins only host-independent counters")
	return tab, nil
}

// S2 certifies the batched miss path: the same replay as S1 but with
// fused batching on, against a batching-disabled reference. How misses
// group into batches is timing-dependent, so the table reports only the
// invariants that hold for EVERY grouping — per-key at-most-once
// computation (computed == distinct), sessions never exceeding the solo
// count (fusion only merges work), and responses byte-identical to the
// solo service (the per-component transcript-equivalence contract of
// core.DetectEvenCycleFused / deterministic.DetectMulti).
func S2(cfg Config) (*Table, error) {
	n, requests, clients := 1200, 240, 8
	mixSweep := []int{4, 12}
	if cfg.Quick {
		n, requests, clients = 300, 60, 4
		mixSweep = []int{2, 6}
	}
	tab := &Table{
		ID:    "S2",
		Title: "batched miss path: fused sessions vs solo reference (timing-independent invariants)",
		Header: []string{"algo", "distinct", "requests", "computed", "sessions ≤ distinct",
			"equal to solo", "hit ratio"},
	}
	algos := []struct {
		name  string
		mkReq func(gs []*graph.Graph) func(gi int) *service.Request
	}{
		{"det", func(gs []*graph.Graph) func(gi int) *service.Request {
			return func(gi int) *service.Request {
				return &service.Request{Graph: gs[gi], Algo: service.AlgoDet, K: 2}
			}
		}},
		{"even", func(gs []*graph.Graph) func(gi int) *service.Request {
			return func(gi int) *service.Request {
				return &service.Request{Graph: gs[gi], Algo: service.AlgoEven, K: 2,
					Seed: cfg.Seed, Iterations: 4}
			}
		}},
	}
	for _, distinct := range mixSweep {
		gs, err := s1Corpus(distinct, n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, a := range algos {
			batchedCfg := service.Config{Slots: 4, CacheEntries: 4 * len(gs), BatchSize: 8}
			soloCfg := service.Config{Slots: 4, CacheEntries: 4 * len(gs), BatchSize: 1}
			bst, bBodies, _, err := s1Point(gs, requests, clients, batchedCfg, a.mkReq(gs))
			if err != nil {
				return nil, fmt.Errorf("S2 %s distinct=%d (batched): %w", a.name, distinct, err)
			}
			_, sBodies, _, err := s1Point(gs, requests, clients, soloCfg, a.mkReq(gs))
			if err != nil {
				return nil, fmt.Errorf("S2 %s distinct=%d (solo): %w", a.name, distinct, err)
			}
			atMostOnce := bst.Computed == int64(distinct)
			bounded := bst.EngineSessions <= int64(distinct)
			identical := len(bBodies) == len(sBodies)
			for gi, body := range bBodies {
				if string(sBodies[gi]) != string(body) {
					identical = false
				}
			}
			saved := bst.Hits + bst.Coalesced
			tab.AddRow(a.name, itoa(distinct), itoa(requests), itoa(int(bst.Computed)),
				fmt.Sprintf("%v", bounded), fmt.Sprintf("%v", identical),
				f(float64(saved)/float64(bst.Requests)))
			if !atMostOnce {
				return nil, fmt.Errorf("S2 %s distinct=%d: %d computed for %d keys",
					a.name, distinct, bst.Computed, distinct)
			}
			if !bounded {
				return nil, fmt.Errorf("S2 %s distinct=%d: %d engine sessions exceed the %d-session solo bound",
					a.name, distinct, bst.EngineSessions, distinct)
			}
			if !identical {
				return nil, fmt.Errorf("S2 %s distinct=%d: batched responses differ from the solo service",
					a.name, distinct)
			}
		}
	}
	tab.AddNote("batched service: BatchSize 8, default linger; solo reference: BatchSize 1. " +
		"Randomized responses match across paths because the service derives each request's run seed " +
		"from (seed, fingerprint) identically on both, and the fused engine reproduces each component's solo transcript")
	tab.AddNote("how many sessions fuse is scheduling-dependent and deliberately not tabled; " +
		"the wall-clock cost of solo vs fused sessions is measured by BenchmarkMissPath{Solo,Fused} (internal/core) " +
		"and BenchmarkDetMissPath{Solo,Fused} (internal/deterministic)")
	return tab, nil
}
