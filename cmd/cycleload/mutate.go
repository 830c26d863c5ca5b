package main

// The mutate-then-detect mode (-mutate NAME) drives the
// incremental corpus mutation path end to end against a live server:
// each op POSTs one random edge to /v1/corpus/NAME/edges and immediately
// detects on the mutated corpus. The gates are consistency, not speed —
// every mutation response must chain (its parent_fingerprint equal to
// the previous child fingerprint, or, for a no-op, the fingerprint
// unchanged), and every detection must be served for exactly the
// fingerprint the preceding mutation acknowledged. A violation is a
// hard error, so CI can run this as a correctness replay of the
// warm-start path under real HTTP traffic.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/service"
)

// MutateRecord is the serialized result of one mutate-then-detect run.
type MutateRecord struct {
	Schema string `json:"schema"`
	Target string `json:"target"`
	Corpus string `json:"corpus"`
	Ops    int    `json:"ops"`
	// Noops counts all-duplicate batches the server acknowledged without
	// a state change; Found counts detections that reported a cycle.
	Noops int `json:"noops"`
	Found int `json:"found"`
	// WarmStarts and Fallbacks sum the per-mutation warm-path counters
	// from the mutation responses (the server's /v1/stats totals ride in
	// ServerStats for cross-checking).
	WarmStarts  int            `json:"warm_starts"`
	Fallbacks   int            `json:"fallbacks"`
	ElapsedNs   int64          `json:"elapsed_ns"`
	OpsPerSec   float64        `json:"ops_per_sec"`
	ServerStats *service.Stats `json:"server_stats,omitempty"`
}

// mutateResponse mirrors cycleserved's mutationEntry wire shape.
type mutateResponse struct {
	Name              string `json:"name"`
	N                 int    `json:"n"`
	M                 int    `json:"m"`
	Fingerprint       string `json:"fingerprint"`
	ParentFingerprint string `json:"parent_fingerprint"`
	Noop              bool   `json:"noop"`
	WarmStarts        int    `json:"warm_starts"`
	Fallbacks         int    `json:"fallbacks"`
}

func mutateRun(addr, name string, ops, k int, seed uint64) (*MutateRecord, error) {
	resp, err := httpClient.Get(addr + "/v1/corpus")
	if err != nil {
		return nil, err
	}
	var entries []mutateResponse
	err = json.NewDecoder(resp.Body).Decode(&entries)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("GET /v1/corpus: %w", err)
	}
	prev := ""
	n := 0
	for _, e := range entries {
		if e.Name == name {
			prev, n = e.Fingerprint, e.N
		}
	}
	if prev == "" {
		return nil, fmt.Errorf("corpus %q not on the server", name)
	}
	if n < 2 {
		return nil, fmt.Errorf("corpus %q has %d vertices; mutation needs at least 2", name, n)
	}

	rec := &MutateRecord{Schema: "evencycle-mutate/v1", Target: addr, Corpus: name, Ops: ops}
	rng := rand.New(rand.NewSource(int64(seed)))
	start := time.Now()
	for i := 0; i < ops; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		body, _ := json.Marshal(map[string]any{"edges": [][2]int{{u, v}}})
		hr, err := httpClient.Post(addr+"/v1/corpus/"+name+"/edges", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("op %d: mutate: %w", i, err)
		}
		var mut mutateResponse
		err = json.NewDecoder(hr.Body).Decode(&mut)
		hr.Body.Close()
		if err != nil || hr.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("op %d: mutate [%d,%d]: status %s err %v", i, u, v, hr.Status, err)
		}
		if mut.Noop {
			rec.Noops++
			if mut.Fingerprint != prev || mut.ParentFingerprint != prev {
				return nil, fmt.Errorf("op %d: no-op moved the fingerprint: %+v (had %s)", i, mut, prev)
			}
		} else {
			if mut.ParentFingerprint != prev {
				return nil, fmt.Errorf("op %d: lineage broken: parent %s, previous child %s", i, mut.ParentFingerprint, prev)
			}
			prev = mut.Fingerprint
		}
		rec.WarmStarts += mut.WarmStarts
		rec.Fallbacks += mut.Fallbacks

		det, _ := json.Marshal(map[string]any{"algo": "det", "k": k, "corpus": name})
		hr, err = httpClient.Post(addr+"/v1/detect", "application/json", bytes.NewReader(det))
		if err != nil {
			return nil, fmt.Errorf("op %d: detect: %w", i, err)
		}
		var dr struct {
			Fingerprint string `json:"fingerprint"`
			Found       bool   `json:"found"`
		}
		err = json.NewDecoder(hr.Body).Decode(&dr)
		hr.Body.Close()
		if err != nil || hr.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("op %d: detect: status %s err %v", i, hr.Status, err)
		}
		if dr.Fingerprint != prev {
			return nil, fmt.Errorf("op %d: detection served fingerprint %s, corpus is at %s", i, dr.Fingerprint, prev)
		}
		if dr.Found {
			rec.Found++
		}
	}
	elapsed := time.Since(start)
	rec.ElapsedNs = elapsed.Nanoseconds()
	if elapsed > 0 {
		rec.OpsPerSec = float64(ops) / elapsed.Seconds()
	}
	rec.ServerStats, err = serverStats(addr)
	if err != nil {
		return nil, err
	}
	return rec, nil
}

func renderMutate(rec *MutateRecord) string {
	return fmt.Sprintf("mutate %s: %d ops (%d noops), %d warm starts, %d fallbacks, %d found, %.1f ops/s",
		rec.Corpus, rec.Ops, rec.Noops, rec.WarmStarts, rec.Fallbacks, rec.Found, rec.OpsPerSec)
}
