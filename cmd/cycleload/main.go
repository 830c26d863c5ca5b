// Command cycleload is a closed-loop load generator for cycleserved: C
// client goroutines each keep exactly one request in flight against
// POST /v1/detect, cycling through a slice of the server's corpus so the
// request stream mixes cache misses (first touch of each graph) with hits
// (every revisit). It reports throughput, a latency histogram with
// percentiles, and the serve-path split the server advertises in its
// X-Evencycle-Source headers — and can gate on minimum cache-hit ratio
// and maximum failures, which is how the CI smoke job asserts the service
// works. Every request goes over HTTP through one client bounded at five
// minutes, so a wedged server fails the run instead of hanging it.
//
// Usage:
//
//	cycleload -addr http://localhost:8972 -requests 400 -clients 8 \
//	  -algo det -k 2 -distinct 4 [-json -out load.json] \
//	  [-min-hit-ratio 0.5] [-max-failures 0]
//
// The corpus names are discovered from GET /v1/corpus; -distinct D uses
// the first D names, so with R requests the expected hit ratio approaches
// 1 - D/R once every graph has been touched. Deterministic mode (-algo
// det) additionally asserts that every response body for a given graph is
// byte-identical — the service's determinism acceptance check.
//
// The many-small-graphs mode (-inline spec) generates -distinct D graphs
// client-side from the spec template (one per derived seed) and ships
// them inline instead of referencing the corpus. With D close to the
// request count nearly every request is a first touch — a pure miss-path
// workload, which is what the server's fused batching exists for. The
// report then includes the batch-size distribution the server advertises
// in its X-Evencycle-Batch headers, and the server's own final counters;
// -max-engine-sessions gates on fused batching actually collapsing the
// session count (the CI smoke job's batching assertion).
//
// Failure-domain accounting: every request lands in an outcome class
// ("2xx", "408" deadline, "429" shed, "499" cancelled, "503" contained
// panic/drain, "client_timeout", "net"), tallied in totals.by_class.
// -deadline-ms attaches a per-request deadline (the 408/429 domains);
// -timeout D -timeout-frac F abandons a fraction F of requests
// client-side after D (the 499 domain, exercising cooperative engine
// cancellation under live load). Server-side faults are armed with
// cycleserved -fault; the in-process chaos gate is the service test
// TestChaosReplayByteIdentity.
//
// Retry policy (-retries N): 429 and 503 are the
// server's explicit safe-to-retry pushback, so with N > 0 the client
// retries them up to N times, sleeping the server's Retry-After hint
// when one is sent and otherwise an exponential backoff (25ms doubling),
// either capped at 2s and jittered ±25% so synchronized
// clients don't re-arrive in lockstep. A request that failed first and
// then succeeded counts as "2xx_retried" in totals.by_class — visibly
// distinct from clean "2xx", so a run that leaned on retries can't
// masquerade as one that didn't.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service"
)

// httpClient carries every request cycleload makes, so none can outlive
// the five-minute bound.
var httpClient = &http.Client{Timeout: 5 * time.Minute}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cycleload:", err)
		os.Exit(1)
	}
}

// LoadRecord is the serialized result of one load run (-json; the CI
// service-smoke and overload artifacts use it).
type LoadRecord struct {
	Schema string     `json:"schema"`
	Target string     `json:"target"`
	Config LoadConfig `json:"config"`
	Totals LoadTotals `json:"totals"`
	// ElapsedNs is the whole-run wall time; RPS the completed requests
	// per second over it.
	ElapsedNs int64   `json:"elapsed_ns"`
	RPS       float64 `json:"rps"`
	Latency   Latency `json:"latency_ns"`
	// ServerStats is the server's own counter snapshot after the run
	// (GET /v1/stats) — the authoritative engine-session count behind
	// the client-observed batch sizes.
	ServerStats *service.Stats `json:"server_stats,omitempty"`
	// ServerMetrics is the before/after delta of the server's /metrics
	// exposition (-metrics): server-side latency quantiles
	// and the counter deltas cross-checking the client tally.
	ServerMetrics *ServerMetricsDelta `json:"server_metrics,omitempty"`
}

// LoadConfig echoes the generator parameters.
type LoadConfig struct {
	Clients    int    `json:"clients"`
	Requests   int    `json:"requests"`
	Algo       string `json:"algo"`
	K          int    `json:"k"`
	Distinct   int    `json:"distinct"`
	Iterations int    `json:"iterations,omitempty"`
	Seed       uint64 `json:"seed"`
	// Inline is the graph-spec template of the many-small-graphs mode
	// (empty = corpus mode).
	Inline string `json:"inline,omitempty"`
	// DeadlineMS is the per-request deadline attached to every request
	// (0 = none): the knob behind the 408/429 outcome classes.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// ClientTimeoutMS/TimeoutFrac inject client-side abandonment: every
	// 1/TimeoutFrac-th request is dropped by the client after
	// ClientTimeoutMS (the 499 domain).
	ClientTimeoutMS int64   `json:"client_timeout_ms,omitempty"`
	TimeoutFrac     float64 `json:"timeout_frac,omitempty"`
	// Retries is how many times a 429/503 is retried (Retry-After
	// honored, exponential backoff otherwise, capped at maxRetryBackoff).
	// 0 = fail immediately, the pre-retry behavior.
	Retries int `json:"retries,omitempty"`
}

// LoadTotals is the outcome tally.
type LoadTotals struct {
	Completed int `json:"completed"`
	Failures  int `json:"failures"`
	// BySource splits completed requests by the server's serve path.
	BySource map[string]int `json:"by_source"`
	// ByClass splits ALL requests (completed and failed) by outcome
	// class: "2xx", "408" (deadline), "429" (shed), "499" (cancelled),
	// "503" (contained panic / draining), "client_timeout" (the client
	// gave up in flight), "net" (transport error), "err" (anything else).
	ByClass map[string]int `json:"by_class"`
	// HitRatio is the fraction of completed requests served without a
	// full computation (cache + coalesced + amplified).
	HitRatio float64 `json:"hit_ratio"`
	// DetByteIdentical is set in det mode: whether every response body
	// per graph was identical across serves.
	DetByteIdentical *bool `json:"det_byte_identical,omitempty"`
	// BatchSizes counts computed requests by the engine batch size the
	// server fused them into (the X-Evencycle-Batch header): key "1" is
	// solo sessions, larger keys are fused batches.
	BatchSizes map[string]int `json:"batch_sizes,omitempty"`
}

// Latency summarizes the per-request latency sample in nanoseconds.
type Latency struct {
	P50  int64 `json:"p50"`
	P90  int64 `json:"p90"`
	P99  int64 `json:"p99"`
	Max  int64 `json:"max"`
	Mean int64 `json:"mean"`
	// Histogram counts requests at or under each power-of-two bound.
	Histogram []Bucket `json:"histogram"`
}

// Bucket is one histogram cell: latency ≤ LeNs.
type Bucket struct {
	LeNs  int64 `json:"le_ns"`
	Count int   `json:"count"`
}

type sample struct {
	ns     int64
	source string
	batch  int // engine batch size for computed requests (X-Evencycle-Batch)
	name   string
	class  string // outcome class (see LoadTotals.ByClass)
	// retryAfter is the server's Retry-After hint on a 429/503, if any —
	// the sleep the retry loop prefers over its own backoff schedule.
	retryAfter time.Duration
	body       []byte
	err        error
}

func run() error {
	addr := flag.String("addr", "http://localhost:8972", "cycleserved base URL")
	clients := flag.Int("clients", 8, "concurrent closed-loop clients")
	requests := flag.Int("requests", 400, "total requests to issue")
	algo := flag.String("algo", "det", "algo per request: even | bounded | odd | det")
	k := flag.Int("k", 2, "half cycle length")
	distinct := flag.Int("distinct", 0, "corpus names to cycle through (0 = all)")
	iterations := flag.Int("iterations", 0, "trial budget per request (0 = server default; randomized algos)")
	seed := flag.Uint64("seed", 1, "request seed (randomized algos)")
	jsonOut := flag.Bool("json", false, "emit the LoadRecord JSON instead of text")
	out := flag.String("out", "", "output file (default stdout)")
	minHitRatio := flag.Float64("min-hit-ratio", -1, "fail unless the hit ratio reaches this (negative disables)")
	maxFailures := flag.Int("max-failures", -1, "fail if more requests fail than this (negative disables)")
	inline := flag.String("inline", "", "many-small-graphs mode: generate -distinct graphs from this spec template\n"+
		"client-side (one per derived seed) and ship them inline instead of using the corpus")
	maxSessions := flag.Int("max-engine-sessions", -1, "fail if the server's final engine-session count exceeds this (negative disables)")
	deadlineMS := flag.Int64("deadline-ms", 0, "per-request deadline in ms (0 = none); expiry is the 408 class, shedding the 429 class")
	retries := flag.Int("retries", 0, "retry 429/503 responses up to this many times, honoring Retry-After (0 = never)")
	clientTimeout := flag.Duration("timeout", 0, "client-side abandonment: give up on injected requests after this long (0 = never)")
	timeoutFrac := flag.Float64("timeout-frac", 0, "fraction of requests that get the -timeout abandonment (0 = none)")
	metrics := flag.Bool("metrics", false, "scrape GET /metrics before and after the replay: record the server-side\n"+
		"latency delta and fail unless the server's success count matches the client's")
	mutate := flag.String("mutate", "", "mutate-then-detect mode: add -requests random single edges to this corpus name,\n"+
		"detecting after each op and gating mutation lineage + served-fingerprint consistency (see mutate.go)")
	flag.Parse()

	if *mutate != "" && (*metrics || *inline != "") {
		return fmt.Errorf("-mutate drives a server corpus; it composes with neither -metrics nor -inline")
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *mutate != "" {
		rec, err := mutateRun(*addr, *mutate, *requests, *k, *seed)
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rec)
		}
		_, err = fmt.Fprintln(w, renderMutate(rec))
		return err
	}

	// Build the request stream: corpus references, or inline graphs
	// generated from the -inline spec template.
	var names []string
	var gs []*graph.Graph
	if *inline != "" {
		if *distinct <= 0 {
			return fmt.Errorf("-inline needs -distinct > 0 (how many graphs to generate)")
		}
		names = make([]string, *distinct)
		gs = make([]*graph.Graph, *distinct)
		for i := range gs {
			g, err := graph.FromSpec(*inline, *seed+uint64(i))
			if err != nil {
				return fmt.Errorf("-inline %q: %w", *inline, err)
			}
			names[i] = fmt.Sprintf("inline-%d", i)
			gs[i] = g
		}
	} else {
		var err error
		if names, err = corpusNames(*addr); err != nil {
			return err
		}
		if len(names) == 0 {
			return fmt.Errorf("server has no corpus graphs; start cycleserved with -corpus name=spec")
		}
		if *distinct > 0 && *distinct < len(names) {
			names = names[:*distinct]
		}
	}
	cfg := LoadConfig{
		Clients: *clients, Requests: *requests, Algo: *algo, K: *k,
		Distinct: len(names), Iterations: *iterations, Seed: *seed, Inline: *inline,
		DeadlineMS:      *deadlineMS,
		ClientTimeoutMS: clientTimeout.Milliseconds(),
		TimeoutFrac:     *timeoutFrac,
		Retries:         *retries,
	}
	fmt.Fprintf(os.Stderr, "load: %d requests, %d clients, %d distinct graphs, algo=%s k=%d\n",
		*requests, *clients, len(names), *algo, *k)

	var before *obs.Exposition
	if *metrics {
		var err error
		if before, err = scrapeMetrics(*addr); err != nil {
			return fmt.Errorf("pre-run scrape: %w", err)
		}
	}
	rec, err := httpRun(*addr, gs, names, cfg)
	if err != nil {
		return err
	}
	if *metrics {
		after, err := scrapeMetrics(*addr)
		if err != nil {
			return fmt.Errorf("post-run scrape: %w", err)
		}
		if rec.ServerMetrics, err = metricsDelta(before, after); err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			return err
		}
	} else {
		renderText(w, rec)
	}

	if *maxFailures >= 0 && rec.Totals.Failures > *maxFailures {
		return fmt.Errorf("%d requests failed (max %d)", rec.Totals.Failures, *maxFailures)
	}
	if *minHitRatio >= 0 && rec.Totals.HitRatio < *minHitRatio {
		return fmt.Errorf("hit ratio %.3f below required %.3f", rec.Totals.HitRatio, *minHitRatio)
	}
	if *maxSessions >= 0 {
		if rec.ServerStats == nil {
			return fmt.Errorf("-max-engine-sessions set but server stats were unavailable")
		}
		if rec.ServerStats.EngineSessions > int64(*maxSessions) {
			return fmt.Errorf("server ran %d engine sessions (max %d — batching did not collapse the miss path)",
				rec.ServerStats.EngineSessions, *maxSessions)
		}
	}
	if rec.Totals.DetByteIdentical != nil && !*rec.Totals.DetByteIdentical {
		return fmt.Errorf("deterministic-mode responses were not byte-identical per graph")
	}
	if rec.ServerMetrics != nil {
		if err := checkServerMetrics(rec.ServerMetrics, rec); err != nil {
			return err
		}
	}
	return nil
}

// replay drives the closed loop: `clients` goroutines each keep one
// request in flight until `requests` have been issued.
func replay(requests, clients int, do func(i int) sample) ([]sample, time.Duration) {
	samples := make([]sample, requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				samples[i] = do(i)
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// httpRun replays the workload over HTTP. Request bodies are marshaled
// once per distinct graph up front — re-encoding the edge list on every
// request would bill client CPU against the server on a shared host.
func httpRun(addr string, gs []*graph.Graph, names []string, cfg LoadConfig) (*LoadRecord, error) {
	bodies := make([][]byte, len(names))
	for i := range names {
		wire := &service.WireRequest{
			Algo:       cfg.Algo,
			K:          cfg.K,
			Seed:       cfg.Seed,
			Iterations: cfg.Iterations,
			DeadlineMS: cfg.DeadlineMS,
		}
		if gs != nil {
			wire.Graph = &service.WireGraph{N: gs[i].NumNodes(), Edges: gs[i].Edges()}
		} else {
			wire.Corpus = names[i]
		}
		var err error
		if bodies[i], err = json.Marshal(wire); err != nil {
			return nil, err
		}
	}
	stride := timeoutStride(cfg.TimeoutFrac)
	samples, elapsed := replay(cfg.Requests, cfg.Clients, func(i int) sample {
		ctx := context.Background()
		if stride > 0 && i%stride == 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(cfg.ClientTimeoutMS)*time.Millisecond)
			defer cancel()
		}
		return oneRequestRetry(ctx, addr, bodies[i%len(names)], names[i%len(names)], cfg.Retries)
	})
	rec := summarize(samples, elapsed)
	rec.Target = addr
	rec.Config = cfg
	if st, err := serverStats(addr); err != nil {
		fmt.Fprintf(os.Stderr, "warning: GET /v1/stats failed: %v\n", err)
	} else {
		rec.ServerStats = st
	}
	if cfg.Algo == "det" || cfg.Algo == "deterministic" {
		identical := detBodiesIdentical(samples)
		rec.Totals.DetByteIdentical = &identical
	}
	return rec, nil
}

// timeoutStride converts -timeout-frac into "every Nth request": 0.25 →
// every 4th. Zero disables injection.
func timeoutStride(frac float64) int {
	if frac <= 0 {
		return 0
	}
	stride := int(1/frac + 0.5)
	if stride < 1 {
		stride = 1
	}
	return stride
}

func serverStats(addr string) (*service.Stats, error) {
	resp, err := httpClient.Get(addr + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func corpusNames(addr string) ([]string, error) {
	resp, err := httpClient.Get(addr + "/v1/corpus")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/corpus: %s", resp.Status)
	}
	var entries []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names, nil
}

func oneRequest(ctx context.Context, addr string, body []byte, name string) sample {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/detect", bytes.NewReader(body))
	if err != nil {
		return sample{name: name, class: "err", err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpClient.Do(req)
	if err != nil {
		class := "net"
		if errors.Is(err, context.DeadlineExceeded) {
			// The injected client timeout fired: we abandoned the request
			// in flight (server-side this is the 499 domain).
			class = "client_timeout"
		}
		return sample{ns: time.Since(start).Nanoseconds(), name: name, class: class, err: err}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	ns := time.Since(start).Nanoseconds()
	if err != nil {
		class := "net"
		if errors.Is(err, context.DeadlineExceeded) {
			class = "client_timeout"
		}
		return sample{ns: ns, name: name, class: class, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		s := sample{ns: ns, name: name, class: strconv.Itoa(resp.StatusCode),
			err: fmt.Errorf("%s: %s", resp.Status, payload)}
		if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec >= 0 {
			s.retryAfter = time.Duration(sec) * time.Second
		}
		return s
	}
	batch, _ := strconv.Atoi(resp.Header.Get("X-Evencycle-Batch"))
	return sample{
		ns:     ns,
		source: resp.Header.Get("X-Evencycle-Source"),
		batch:  batch,
		name:   name,
		class:  "2xx",
		body:   payload,
	}
}

// retryable reports whether a response class is worth re-sending: 429
// (shed / deadline-cannot-cover-queue) and 503 (draining, store failure)
// are explicit back-off-and-come-back signals. Everything else — 4xx
// request defects, 408 deadline expiry, network errors mid-body — either
// will not improve on resend or may have committed server-side work.
func retryable(class string) bool {
	return class == "429" || class == "503"
}

// maxRetryBackoff caps the sleep between retries of a 429/503.
const maxRetryBackoff = 2 * time.Second

// oneRequestRetry wraps oneRequest with a bounded retry loop for
// back-pressure responses. The sleep between attempts prefers the
// server's Retry-After hint when one came back, otherwise an exponential
// schedule starting at 25ms; either way it is capped at maxRetryBackoff and
// jittered ±25% so a fleet of shed clients does not re-converge on the
// same instant. A request that succeeds after at least one retry is
// classed "2xx_retried" so summaries separate clean admissions from
// recovered ones; the reported latency covers only the final attempt
// (queueing delay the client chose to insert is not service latency).
func oneRequestRetry(ctx context.Context, addr string, body []byte, name string, retries int) sample {
	s := oneRequest(ctx, addr, body, name)
	backoff := 25 * time.Millisecond
	for attempt := 0; attempt < retries && retryable(s.class); attempt++ {
		sleep := backoff
		if s.retryAfter > 0 {
			sleep = s.retryAfter
		}
		sleep = min(sleep, maxRetryBackoff)
		sleep = time.Duration(float64(sleep) * (0.75 + 0.5*rand.Float64()))
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return s
		}
		backoff *= 2
		s = oneRequest(ctx, addr, body, name)
		if s.class == "2xx" {
			s.class = "2xx_retried"
		}
	}
	return s
}

func summarize(samples []sample, elapsed time.Duration) *LoadRecord {
	rec := &LoadRecord{
		Schema:    "evencycle-service-load/v1",
		ElapsedNs: elapsed.Nanoseconds(),
		Totals:    LoadTotals{BySource: make(map[string]int), ByClass: make(map[string]int)},
	}
	var lats []int64
	var sum int64
	var failuresShown int
	for _, s := range samples {
		if s.class != "" {
			rec.Totals.ByClass[s.class]++
		}
		if s.err != nil {
			rec.Totals.Failures++
			// An overload run fails hundreds of requests by design; cap
			// the per-request noise and let by_class carry the tally.
			if failuresShown < 10 {
				fmt.Fprintf(os.Stderr, "request failed: %v\n", s.err)
				failuresShown++
			} else if failuresShown == 10 {
				fmt.Fprintln(os.Stderr, "(further failures suppressed; see totals.by_class)")
				failuresShown++
			}
			continue
		}
		rec.Totals.Completed++
		rec.Totals.BySource[s.source]++
		if s.batch > 0 {
			if rec.Totals.BatchSizes == nil {
				rec.Totals.BatchSizes = make(map[string]int)
			}
			rec.Totals.BatchSizes[strconv.Itoa(s.batch)]++
		}
		lats = append(lats, s.ns)
		sum += s.ns
	}
	if rec.Totals.Completed > 0 {
		saved := rec.Totals.Completed - rec.Totals.BySource[string(service.SourceComputed)]
		rec.Totals.HitRatio = float64(saved) / float64(rec.Totals.Completed)
		rec.RPS = float64(rec.Totals.Completed) / elapsed.Seconds()
	}
	if len(lats) > 0 {
		slices.Sort(lats)
		q := func(p float64) int64 {
			i := int(p * float64(len(lats)-1))
			return lats[i]
		}
		rec.Latency = Latency{
			P50: q(0.50), P90: q(0.90), P99: q(0.99),
			Max:  lats[len(lats)-1],
			Mean: sum / int64(len(lats)),
		}
		// Power-of-two buckets from 4µs up to the max.
		for le := int64(4096); ; le *= 2 {
			n, _ := slices.BinarySearch(lats, le+1)
			rec.Latency.Histogram = append(rec.Latency.Histogram, Bucket{LeNs: le, Count: n})
			if le >= rec.Latency.Max {
				break
			}
		}
	}
	return rec
}

// detBodiesIdentical checks the determinism acceptance bar: for each
// graph, every successful det-mode response body must be byte-identical
// no matter which serve path produced it.
func detBodiesIdentical(samples []sample) bool {
	first := make(map[string][]byte)
	ok := true
	for _, s := range samples {
		if s.err != nil || s.body == nil {
			continue
		}
		if prev, seen := first[s.name]; seen {
			if !bytes.Equal(prev, s.body) {
				fmt.Fprintf(os.Stderr, "det responses differ for %s:\n  %s\n  %s\n", s.name, prev, s.body)
				ok = false
			}
		} else {
			first[s.name] = s.body
		}
	}
	return ok
}

func renderText(w io.Writer, rec *LoadRecord) {
	fmt.Fprintf(w, "completed %d requests in %s (%.1f req/s), %d failures\n",
		rec.Totals.Completed, time.Duration(rec.ElapsedNs).Round(time.Millisecond),
		rec.RPS, rec.Totals.Failures)
	fmt.Fprintf(w, "serve paths:")
	for _, src := range []string{"computed", "amplified", "coalesced", "cache"} {
		if n := rec.Totals.BySource[src]; n > 0 {
			fmt.Fprintf(w, " %s=%d", src, n)
		}
	}
	fmt.Fprintf(w, "  hit ratio %.3f\n", rec.Totals.HitRatio)
	if len(rec.Totals.ByClass) > 1 || rec.Totals.ByClass["2xx"] != rec.Totals.Completed {
		classes := make([]string, 0, len(rec.Totals.ByClass))
		for c := range rec.Totals.ByClass {
			classes = append(classes, c)
		}
		slices.Sort(classes)
		fmt.Fprintf(w, "outcome classes:")
		for _, c := range classes {
			fmt.Fprintf(w, " %s=%d", c, rec.Totals.ByClass[c])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "latency: p50=%s p90=%s p99=%s max=%s\n",
		time.Duration(rec.Latency.P50), time.Duration(rec.Latency.P90),
		time.Duration(rec.Latency.P99), time.Duration(rec.Latency.Max))
	if len(rec.Totals.BatchSizes) > 0 {
		sizes := make([]int, 0, len(rec.Totals.BatchSizes))
		for k := range rec.Totals.BatchSizes {
			if v, err := strconv.Atoi(k); err == nil {
				sizes = append(sizes, v)
			}
		}
		slices.Sort(sizes)
		fmt.Fprintf(w, "engine batch sizes:")
		for _, sz := range sizes {
			fmt.Fprintf(w, " %d×%d", sz, rec.Totals.BatchSizes[strconv.Itoa(sz)])
		}
		fmt.Fprintln(w)
	}
	if rec.ServerStats != nil {
		fmt.Fprintf(w, "server sessions: engine=%d (fused=%d solo=%d), batches=%d mean=%.2f max=%d\n",
			rec.ServerStats.EngineSessions, rec.ServerStats.FusedSessions, rec.ServerStats.SoloSessions,
			rec.ServerStats.BatchesFormed, rec.ServerStats.MeanBatchSize, rec.ServerStats.MaxBatchSize)
	}
	if rec.ServerMetrics != nil {
		fmt.Fprintf(w, "server-side latency (from /metrics): p50=%s p99=%s over %.0f timed requests\n",
			time.Duration(rec.ServerMetrics.P50Ns), time.Duration(rec.ServerMetrics.P99Ns),
			rec.ServerMetrics.DurationCount)
	}
	if rec.Totals.DetByteIdentical != nil {
		fmt.Fprintf(w, "det responses byte-identical per graph: %v\n", *rec.Totals.DetByteIdentical)
	}
}
