package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// resultsFile is the -out record: every run's metrics, the input of
// -compare.
type resultsFile struct {
	Seconds int       `json:"seconds"`
	Runs    []*result `json:"runs"`
}

func writeResults(path string, seconds int, results []*result) error {
	data, err := json.MarshalIndent(resultsFile{Seconds: seconds, Runs: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series collects each metric's values per workload, in run order.
func series(results []*result) (order []string, vals map[string]map[string][]float64) {
	vals = map[string]map[string][]float64{}
	for _, r := range results {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
			order = append(order, r.Workload)
		}
		for name, v := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], v)
		}
	}
	return order, vals
}

// printSummary prints each metric's median, quartiles and spread over the
// runs of -runs N: the numbers BENCHMARK.json's bounds are set from.
func printSummary(w io.Writer, results []*result) {
	order, vals := series(results)
	for _, name := range order {
		fmt.Fprintf(w, "%s over %d runs:\n", name, len(vals[name]["setup_s"]))
		fmt.Fprintf(w, "  %-28s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
		for _, m := range slices.Concat(endToEnd, runDiagnostics) {
			xs := vals[name][m.name]
			if len(xs) == 0 {
				fmt.Fprintf(w, "  %-28s refused in every run\n", m.name)
				continue
			}
			q1, _, q3, _ := quartiles(xs)
			fmt.Fprintf(w, "  %-28s %14.6g %14.6g %14.6g %7.2f%%\n", m.name, median(xs), q1, q3, 100*spread(xs))
		}
	}
}

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict classifies one metric on one workload, head against base: a
// gain needs the head to win at least nine tenths of the run pairs and
// the medians to differ by more than the base's quartile distance; a
// regression is a median worse by more than the bound, however noisy the
// base; of the rest, a metric whose base spread exceeds the bound is
// unresolved rather than unchanged, unless every head run beats every
// base run.
func verdict(base, head []float64, bound float64, higherBetter bool) string {
	better := func(h, b float64) bool {
		if higherBetter {
			return h > b
		}
		return h < b
	}
	mb, mh := median(base), median(head)
	q1, _, q3, _ := quartiles(base)
	wins, pairs := 0, min(len(base), len(head))
	for i := range pairs {
		if better(head[i], base[i]) {
			wins++
		}
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	worse := (mh - mb) / math.Abs(mb)
	if higherBetter {
		worse = -worse
	}
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && better(mh, mb) && math.Abs(mh-mb) > q3-q1:
		return "improved"
	case worse > bound:
		return "regressed"
	case spread(base) > bound && !allBetter:
		return "unresolved"
	default:
		return "unchanged"
	}
}

// diagnosticBound is the bound -compare applies to the run diagnostics,
// which BENCHMARK.json lists without one: the default bound of an
// end-to-end metric. Their base spread usually exceeds it, so they read
// unresolved unless every head run beats every base run.
const diagnosticBound = 0.10

// compareFiles applies BENCHMARK.json's bounds to two -out files, one row
// per workload and end-to-end metric, then one per run diagnostic. It
// exits non-zero on a regression of an end-to-end metric.
func compareFiles(w io.Writer, specPath, basePath, headPath string) int {
	spec, err := readSpec(specPath)
	if err != nil {
		return fail(err)
	}
	base, err := readResults(basePath)
	if err != nil {
		return fail(err)
	}
	head, err := readResults(headPath)
	if err != nil {
		return fail(err)
	}
	type row struct {
		name                string
		bound               float64
		higherBetter, gated bool
	}
	var rows []row
	for _, m := range spec.EndToEnd {
		rows = append(rows, row{m.Name, m.Bound, m.Better == "higher", true})
	}
	for _, m := range runDiagnostics {
		rows = append(rows, row{m.name, diagnosticBound, m.better == "higher", false})
	}
	order, bv := series(base.Runs)
	_, hv := series(head.Runs)
	regressed := false
	fmt.Fprintf(w, "%-18s %-28s %12s %12s %8s %8s  %s\n", "workload", "metric", "base", "head", "change", "bound", "verdict")
	for _, name := range order {
		for _, m := range rows {
			b, h := bv[name][m.name], hv[name][m.name]
			if len(b) == 0 || len(h) == 0 || median(b) == 0 {
				// A closed loop's generator lag is 0 by construction.
				fmt.Fprintf(w, "%-18s %-28s missing on one side, or 0 on the base\n", name, m.name)
				continue
			}
			v := verdict(b, h, m.bound, m.higherBetter)
			regressed = regressed || m.gated && v == "regressed"
			fmt.Fprintf(w, "%-18s %-28s %12.6g %12.6g %+7.2f%% %7.1f%%  %s\n", name, m.name,
				median(b), median(h), 100*(median(h)-median(b))/math.Abs(median(b)), 100*m.bound, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
