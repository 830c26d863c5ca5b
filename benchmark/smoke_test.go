package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs the traced mode of every workload against a real
// cycleserved built from this checkout: a two-second measured phase
// (enough arrivals for a supported p50 at the open loop's rate), a short
// traced prefix and the full probes. Every check must pass and every
// metric must be reported, except the p99s the short phases leave too few
// samples for.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts cycleserved")
	}
	bin := filepath.Join(t.TempDir(), "cycleserved")
	if err := buildServer("..", bin); err != nil {
		t.Fatal(err)
	}
	cfg := &config{
		root: "..", bin: bin, work: t.TempDir(),
		seconds: 2 * time.Second, warmup: 200 * time.Millisecond, setups: 1,
		traceOps: 40,
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.gen(1)
			if err != nil {
				t.Fatal(err)
			}
			spans := filepath.Join(t.TempDir(), "spans.json")
			res, err := traceRun(cfg, w, in, spans, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range slices.Concat(endToEnd, perLayer) {
				if _, ok := res.Metrics[m.name]; !ok && !strings.HasSuffix(m.name, "p99") && !strings.HasSuffix(m.name, "p99_ms") {
					t.Errorf("%s missing", m.name)
				}
			}
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var got []span
			if err := json.Unmarshal(data, &got); err != nil || len(got) == 0 {
				t.Fatalf("spans file: %d spans, %v", len(got), err)
			}
		})
	}
}
