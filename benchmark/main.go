// Command benchmark is the repository's end-to-end benchmark. It builds
// ./cmd/cycleserved from the checkout, starts a fresh server for every
// workload, drives it over HTTP from this one process (GOMAXPROCS=2, at
// most 2 connections), checks every response, and prints each metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"}}}
//
// With -trace 0 the metrics are the end-to-end ones, with -trace 1 the
// per-layer ones of a traced replay (see README.md for the catalog). Run
// it from the root of a checkout through run.sh, which keeps every build
// artifact inside the checkout:
//
//	bash benchmark/run.sh -workload hit-corpus -seed 1 -seconds 20 -trace 0
//	bash benchmark/run.sh -seed 1                      # all four workloads
//	bash benchmark/run.sh -workload miss-det-open -runs 10 -out base.json
//	bash benchmark/run.sh -compare base.json head.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// config is one invocation's settings.
type config struct {
	root    string        // checkout root
	bin     string        // the built cycleserved
	work    string        // scratch directory inside the checkout
	seconds time.Duration // measured phase
	warmup  time.Duration // discarded phase before it
	setups  int           // server bring-ups per run; setup_s is their median
	// traceOps > 0 overrides every workload's traced prefix (tests shrink
	// runs with it).
	traceOps int
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Uint64("seed", 1, "input seed; run r of -runs uses seed+r")
	seconds := fs.Int("seconds", 20, "measured phase length per run")
	trace := fs.Int("trace", 0, "1: traced replay reporting the per-layer metrics, spans in .bench_build/spans-<workload>.json")
	runs := fs.Int("runs", 1, "runs per workload; prints each metric's median and quartiles")
	out := fs.String("out", "", "write every run's metrics to this JSON file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments: base.json head.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two files: base.json head.json"))
		}
		return compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	root, err := filepath.Abs(".")
	if err != nil {
		return fail(err)
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 || *runs < 1 || *trace == 1 && *runs != 1 {
		return fail(errors.New("want -trace 0|1, -seconds ≥ 1, -runs ≥ 1 (and -runs 1 with -trace 1)"))
	}
	selected := workloads
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			return fail(err)
		}
		selected = []*workload{w}
	}

	runtime.GOMAXPROCS(clients)
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return fail(err)
	}
	cfg := &config{
		root:    root,
		bin:     filepath.Join(build, "cycleserved"),
		seconds: time.Duration(*seconds) * time.Second,
		warmup:  2 * time.Second,
		setups:  5,
	}
	if err := buildServer(cfg.root, cfg.bin); err != nil {
		return fail(err)
	}
	if cfg.work, err = os.MkdirTemp(build, "run-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(cfg.work)

	var results []*result
	for r := range *runs {
		for _, w := range selected {
			s := *seed + uint64(r)
			in, err := w.gen(s)
			if err != nil {
				return fail(fmt.Errorf("%s seed %d: %w", w.name, s, err))
			}
			var res *result
			if *trace == 1 {
				res, err = traceRun(cfg, w, in, filepath.Join(build, "spans-"+w.name+".json"), stdout)
			} else {
				res, err = measure(cfg, w, in)
			}
			if err != nil {
				return fail(fmt.Errorf("%s seed %d: %w", w.name, s, err))
			}
			res.print(stdout, *trace == 1)
			results = append(results, res)
		}
	}
	if *runs > 1 {
		printSummary(stdout, results)
	}
	if *out != "" {
		if err := writeResults(*out, *seconds, results); err != nil {
			return fail(err)
		}
	}
	line, correct := finalLine(results, *trace == 1)
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// samples is the sample count behind each metric, for the text output.
	samples map[string]int
}

func newResult(w *workload, seed uint64) *result {
	return &result{Workload: w.name, Seed: seed, Metrics: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.Metrics[name], r.samples[name] = v, n
}

// setPct sets the p-quantile of xs. A percentile too few samples support
// stays unset: it prints as refused and fails the run.
func (r *result) setPct(name string, xs []float64, p float64) {
	if v, ok := percentile(sortedCopy(xs), p); ok {
		r.set(name, v, len(xs))
	}
}

// guardFailed marks a run whose shape was wrong (a miss workload that
// hit the cache, say): its numbers do not measure the workload, whatever
// the per-request checks said.
func (r *result) guardFailed(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: %s: shape guard: %s\n", r.Workload, fmt.Sprintf(format, args...))
	r.Correct = false
}

// measure is one end-to-end run on in: bring the server up cfg.setups
// times (setup_s is their median), warm up, measure for cfg.seconds, and
// check. It reports the end-to-end metrics and the run diagnostics.
func measure(cfg *config, w *workload, in *inputs) (*result, error) {
	var srv *server
	var d agent
	var err error
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var setups []float64
	for range cfg.setups {
		if srv != nil {
			srv.stop()
		}
		var took time.Duration
		if srv, d, took, err = bringUp(cfg, w, in); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	seed := in.seed
	r := &runner{s: srv, d: d, errs: &errLog{}}
	drive(r, w, seed, 0, cfg.warmup)
	before, err := srv.counters()
	if err != nil {
		return nil, err
	}
	p := drive(r, w, seed, 1, cfg.seconds)
	after, err := srv.counters()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	p.failed += d.verify()

	res := newResult(w, seed)
	res.Attempted, res.Failed, res.Correct = p.attempted, p.failed, p.failed == 0
	ok := float64(p.attempted - p.failed)
	res.set("success_rate", ok/float64(max(p.attempted, 1)), p.attempted)
	res.set("setup_s", median(setups), len(setups))
	res.set("server_rss_mb", float64(rss)/(1<<20), 1)

	res.set("throughput_rps", ok/p.elapsed.Seconds(), p.attempted-p.failed)
	lat := durations(p.lat, time.Millisecond)
	res.setPct("latency_p50_ms", lat, 0.50)
	res.setPct("latency_p99_ms", lat, 0.99)
	res.set("server_cpu_ms_per_op", float64(after.cpu-before.cpu)/float64(time.Millisecond)/float64(max(p.attempted, 1)), p.attempted)

	st := subStats(after.stats, before.stats)
	if p.failed == 0 && st.Requests != int64(p.attempted) {
		res.guardFailed("server counted %d detections, the client sent %d", st.Requests, p.attempted)
	}
	if err := w.guard(st, p.attempted); err != nil {
		res.guardFailed("%v", err)
	}
	if w.rate == 0 {
		// A closed loop sends each op the moment the previous one
		// completes, so its generator is never late.
		res.set("client.generator_lag_ms.p99", 0, 0)
	} else if lags := sortedCopy(durations(p.lag, time.Millisecond)); len(lags) > 0 {
		// A late generator leaves every latency honest (each runs from its
		// due time) but the offered load late. Host stalls cause that
		// whatever the code under test does, so it is a warning, not a
		// failed check. Too few arrivals for a p99 use the maximum.
		res.setPct("client.generator_lag_ms.p99", lags, 0.99)
		lag, ok := percentile(lags, 0.99)
		if !ok {
			lag = lags[len(lags)-1]
		}
		verdict := "valid"
		if lag >= 1 {
			verdict = "INVALID (≥ 1 ms): the host stalled the generator"
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: generator lag p99 %.3f ms over %d arrivals: open loop %s\n",
			w.name, lag, len(lags), verdict)
	}
	return res, nil
}

// bringUp starts a fresh server for w and runs the agent's setup; the
// returned duration runs from exec to a healthy server with its corpus
// uploaded and its cache warmed.
func bringUp(cfg *config, w *workload, in *inputs) (*server, agent, time.Duration, error) {
	flags := w.flags
	if w.durable {
		dir, err := os.MkdirTemp(cfg.work, "data-")
		if err != nil {
			return nil, nil, 0, err
		}
		flags = append(slices.Clone(flags), "-data-dir", dir)
	}
	start := time.Now()
	srv, err := startServer(cfg.bin, flags)
	if err != nil {
		return nil, nil, 0, err
	}
	d := w.agent(in)
	if err := d.setup(srv); err != nil {
		srv.stop()
		return nil, nil, 0, fmt.Errorf("setup: %w", err)
	}
	return srv, d, time.Since(start), nil
}

// drive runs one phase of w's loop for dur; tag separates the arrival
// schedules of successive phases.
func drive(r *runner, w *workload, seed uint64, tag uint64, dur time.Duration) *phase {
	if w.rate > 0 {
		return r.open(poissonSchedule(derive(seed, 500, tag), w.rate, dur), false)
	}
	return r.closed(dur, 0, false)
}

// subStats returns the counter deltas a-b of the fields the benchmark reads.
func subStats(a, b service.Stats) service.Stats {
	return service.Stats{
		Requests:       a.Requests - b.Requests,
		Hits:           a.Hits - b.Hits,
		Coalesced:      a.Coalesced - b.Coalesced,
		Amplified:      a.Amplified - b.Amplified,
		Computed:       a.Computed - b.Computed,
		EngineSessions: a.EngineSessions - b.EngineSessions,
		Mutations:      a.Mutations - b.Mutations,
		WarmStarts:     a.WarmStarts - b.WarmStarts,
		Fallbacks:      a.Fallbacks - b.Fallbacks,
	}
}

// metricDef is one catalog entry; BENCHMARK.json lists the same entries.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics BENCHMARK.json bounds.
var endToEnd = []metricDef{
	{"success_rate", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"server_rss_mb", "MiB", "lower"},
}

// runDiagnostics are the end-to-end timings every run measures that
// BENCHMARK.json lists per layer, without a bound: on the shared 2-vCPU
// host each one's run-to-run spread stays above a tenth on some workload
// however long the run (README.md).
var runDiagnostics = []metricDef{
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"server_cpu_ms_per_op", "ms", "lower"},
	{"client.generator_lag_ms.p99", "ms", "lower"},
}

// catalog is the metrics of the closing JSON line.
func catalog(perLayerRun bool) []metricDef {
	if perLayerRun {
		return perLayer
	}
	return endToEnd
}

func (r *result) print(w io.Writer, perLayerRun bool) {
	fmt.Fprintf(w, "%s seed=%d attempted=%d failed=%d correct=%v\n", r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct)
	r.printMetrics(w, catalog(perLayerRun))
	if !perLayerRun {
		fmt.Fprintln(w, "  diagnostics, without a bound:")
		r.printMetrics(w, runDiagnostics)
	}
}

// printMetrics prints each metric with its sample count; a sample count
// of 0 marks a layer the workload's ops skip.
func (r *result) printMetrics(w io.Writer, ms []metricDef) {
	for _, m := range ms {
		v, ok := r.Metrics[m.name]
		if !ok {
			fmt.Fprintf(w, "  %-34s refused\n", m.name)
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s (n=%d)\n", m.name, v, m.unit, r.samples[m.name])
	}
}

// finalLine renders the closing JSON object. With one result its metrics
// are that run's; with several, each metric is the median over runs,
// named <workload>.<metric> when more than one workload ran.
func finalLine(results []*result, perLayerRun bool) ([]byte, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	runs := map[string]int{}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		runs[r.Workload]++
	}
	order, vals := series(results)
	for _, name := range order {
		for _, m := range catalog(perLayerRun) {
			vs := vals[name][m.name]
			if len(vs) < runs[name] {
				out.Correct = false // a refused metric leaves the run without a result
				continue
			}
			key := m.name
			if len(order) > 1 {
				key = name + "." + m.name
			}
			out.Metrics[key] = value{median(vs), m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // every metric is a finite ratio of measured counts and times
	}
	return line, out.Correct
}
