package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// inputDigest hashes every input the workloads generate from seed: the
// graphs as the server receives them, their fingerprints, corpus names,
// request seeds, PEG edge streams and the open-loop schedule.
func inputDigest(t *testing.T, seed uint64) string {
	h := sha256.New()
	for _, w := range workloads {
		in, err := w.gen(seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, w.name, in.names)
		for i := range in.graphs {
			h.Write(in.wire[i])
			fmt.Fprintln(h, in.fps[i], in.free[i])
		}
		switch d := w.agent(in).(type) {
		case *evenInline:
			for i := range 1000 {
				fmt.Fprintln(h, d.requestSeed(opSeedTag, i), d.requestSeed(setupSeedTag, i))
			}
		case *mutate:
			for _, p := range d.peg {
				for range 200 {
					e, ok := p.next()
					fmt.Fprintln(h, e, ok)
				}
			}
		}
		if w.rate > 0 {
			fmt.Fprintln(h, poissonSchedule(derive(seed, 500, 1), w.rate, 15*time.Second))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestInputsPinned pins the inputs of seed 1, so a change to the graph
// generators (or to the benchmark's own derivations) cannot silently
// shift the workloads that every later measurement compares against.
func TestInputsPinned(t *testing.T) {
	const want = "21c251516f31110a7fb4037ba4d3289a9d8b7903bc7b1767b5ed476112db7966"
	if got := inputDigest(t, 1); got != want {
		t.Fatalf("inputs of seed 1 hash to %s, pinned %s: the workloads changed", got, want)
	}
	if inputDigest(t, 2) == want {
		t.Fatal("seed 2 generated the inputs of seed 1")
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the program in
// step: the same workloads and metrics, in the same order, within the
// file format's limits.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(raw))
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q/%q, program has %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range spec.EndToEnd {
		checkName(m.Name)
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end %d: %+v, program has %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		checkName(m.Name)
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %d: %+v, program has %+v", i, m, want)
		}
	}
}
