// Command cycleserved serves the repository's cycle detectors over
// HTTP/JSON: a long-running detection service with a bounded worker pool,
// single-flight coalescing of identical requests, and a verdict cache
// keyed by graph fingerprint (see internal/service and
// docs/ARCHITECTURE.md, "Service layer").
//
// Usage:
//
//	cycleserved -addr :8972 \
//	  -corpus planted-a=planted:2000:4:1.5 -corpus free-a=highgirth:2000:3000:6
//
// API:
//
//	POST /v1/detect     {"algo":"even|bounded|odd|det","k":2,
//	                     "corpus":"name" | "graph":{"n":N,"edges":[[u,v],...]},
//	                     "seed":S,"iterations":I,"threshold":T,"pipelined":false}
//	                    → the verdict JSON (found, witness, rounds, bits, ...).
//	                    Serve-path metadata travels in headers
//	                    (X-Evencycle-Source: cache|coalesced|amplified|computed,
//	                    X-Evencycle-Elapsed-Ns, and for computed requests
//	                    X-Evencycle-Batch: the engine batch size the request
//	                    was fused into), keeping deterministic-mode response
//	                    bodies byte-identical across serves.
//	POST /v1/jobs       same body → {"id":"job-N"} immediately (async).
//	GET  /v1/jobs/{id}  → job status, including the verdict once done.
//	GET  /v1/jobs/{id}/witness → just the witness cycle of a done job.
//	GET  /v1/corpus     → the registered named graphs with fingerprints.
//	POST /v1/corpus/{name}        create a corpus graph: {"graph":{"n":N,
//	                    "edges":[[u,v],...]}} or {"spec":"planted:...","seed":S}
//	                    → 201 with {name,n,m,fingerprint}; 409 if the name
//	                    is taken. Remote specs are restricted to pure
//	                    generator kinds (file: is refused — it reads
//	                    server-side paths) and size-bounded; the -corpus
//	                    flag keeps the full spec language.
//	POST /v1/corpus/{name}/edges  append edges: {"edges":[[u,v],...]} →
//	                    200 with the new {name,n,m,fingerprint}; the old
//	                    graph value is untouched (copy-on-write), so
//	                    in-flight detections and cached verdicts stay valid.
//	DELETE /v1/corpus/{name}      remove the graph → 200; 404 if unknown.
//	GET  /v1/stats      → request/hit/coalesce/amplify/engine-session counters,
//	                    plus the failure-domain counters (shed, deadline_exceeded,
//	                    cancelled, panics, mean_session_ms).
//	GET  /v1/store      → durable-store counters (graphs, last_seq, wal_bytes,
//	                    appended, compactions, recovered, torn_tail); 404
//	                    when the server runs without -data-dir.
//	GET  /metrics       → Prometheus text exposition (counters, gauges,
//	                    and with -observe the request/stage/engine/gate/
//	                    store latency histograms); stays scrapable while
//	                    draining.
//	GET  /healthz       → {"ok":true,"uptime_seconds":...,"version":...}
//	                    once the corpus is built; ok=false with
//	                    "draining":true and 503 during shutdown.
//
// A request body with "trace":true opts into per-stage timing: the
// response body gains a trace_ns object (nanoseconds in validate;
// queue_wait, or batch_linger for a miss taken into another miss's
// batch; engine; cache_install) and matching
// X-Evencycle-Stage-* headers. Untraced responses are byte-identical to
// an unobserved server's. -log-requests (sampled by -log-sample N)
// logs one key=value completion line per detection; -debug-addr opens
// a pprof side listener.
//
// Durability: with -data-dir every corpus mutation is journaled to a
// checksummed WAL (fsynced before the response when -fsync=true, the
// default) and compacted into a snapshot past -compact-threshold bytes;
// on boot the corpus is recovered — snapshot plus journal replay, torn
// tail truncated with a logged warning, mid-file corruption refusing to
// start — BEFORE the listener opens, so a 200 from this server means the
// state survives kill -9. -corpus flag graphs are persisted into the
// store at first boot (so they are mutable and deletable over the API
// like any other graph); on later boots the durable value wins over the
// spec. Mutations whose graph would not fit a single durable record
// (~64 MiB encoded) are refused with 400 before anything is written.
// Without -data-dir mutations are memory-only and vanish on restart.
//
// Error taxonomy (see internal/service and docs/ARCHITECTURE.md,
// "Failure domains & request lifecycle"):
//
//	400  malformed request (bad algo, bad graph, negative deadline)
//	404  unknown corpus name or job id
//	409  corpus create for a name that is already registered
//	408  the request's deadline (deadline_ms, or -deadline default,
//	     capped by -max-deadline) expired before or during detection
//	429  load shed: the admission queue is full, or the estimated queue
//	     wait already exceeds the request's remaining deadline
//	499  the client disconnected and the detection was cancelled
//	     cooperatively at an engine round boundary
//	503  a detector panic was contained (response carries the error), or
//	     the server is draining after SIGTERM (Retry-After is set)
//
// On SIGTERM/SIGINT the server stops admitting work (503 + Retry-After,
// healthz flips to draining), lets in-flight and accepted async jobs
// finish (bounded by -drain-timeout), then exits 0.
//
// -fault arms deterministic fault-injection points (repeatable; spec
// point:every=N[:limit=M][:delay=D], see internal/faultpoint). Faults are
// for chaos testing only and are loudly logged at startup.
//
// Cache policy: deterministic-mode (algo=det) verdicts are pure functions
// of the graph and cache forever (the seed is not part of the key);
// randomized verdicts record their trial budget — a repeat query within
// budget is a pure hit, a larger budget runs only the missing trials
// (amplification). -iterations sets the default budget for requests that
// omit one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// listFlag collects repeated string flags (-corpus name=spec, -fault spec).
type listFlag []string

func (c *listFlag) String() string { return strings.Join(*c, ",") }
func (c *listFlag) Set(v string) error {
	*c = append(*c, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cycleserved:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8972", "listen address")
	slots := flag.Int("slots", 0, "concurrent detections (worker pool size; 0 = GOMAXPROCS)")
	queue := flag.Int("queue", 1024, "admission queue bound, counting every queued miss (fusable ones too); deeper requests are rejected (negative = unbounded)")
	cache := flag.Int("cache", 1024, "verdict cache capacity (entries)")
	parallel := flag.Int("parallel", 1, "trial parallelism of bounded/odd requests (0 = GOMAXPROCS); even/det run on one fused session")
	workers := flag.Int("workers", 0, "engine goroutine pool per session (0 = GOMAXPROCS)")
	iterations := flag.Int("iterations", 32, "default trial budget for randomized requests that omit one")
	batch := flag.Int("batch", 0, "fused miss-path batch size: a miss granted a slot takes compatible queued misses into one engine session (0 = default 8, 1 = disable)")
	corpusSeed := flag.Uint64("corpus-seed", 1, "seed for randomized corpus generators")
	deadline := flag.Duration("deadline", 0, "default per-request deadline for requests that omit deadline_ms (0 = none)")
	maxDeadline := flag.Duration("max-deadline", 0, "cap on client-supplied deadlines (0 = uncapped)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight work before exiting")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	readTimeout := flag.Duration("read-timeout", time.Minute, "http.Server ReadTimeout (whole-request read bound)")
	writeTimeout := flag.Duration("write-timeout", 2*time.Minute, "http.Server WriteTimeout (response write bound; bounds handler time for synchronous detects)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	maxHeaderBytes := flag.Int("max-header-bytes", 1<<20, "http.Server MaxHeaderBytes")
	observe := flag.Bool("observe", true, "arm latency observation: request/stage/engine/gate/store histograms behind GET /metrics (counters work either way)")
	debugAddr := flag.String("debug-addr", "", "side listener for /debug/pprof/* (empty = disabled); keep it off the public address")
	logRequests := flag.Bool("log-requests", false, "log a structured key=value completion line per detection request")
	logSample := flag.Int64("log-sample", 1, "with -log-requests, log every Nth completion (1 = all)")
	dataDir := flag.String("data-dir", "", "durable corpus directory (WAL + snapshot); empty = memory-only corpus")
	fsync := flag.Bool("fsync", true, "fsync the corpus journal before acknowledging a mutation (power-loss durability; -data-dir only)")
	compactThreshold := flag.Int64("compact-threshold", 0, "journal bytes that trigger snapshot compaction (0 = default 4MiB, negative = never; -data-dir only)")
	var corpus, faults listFlag
	flag.Var(&corpus, "corpus", "named corpus graph as name=spec (repeatable); specs:\n"+graph.SpecHelp)
	flag.Var(&faults, "fault", "arm a fault-injection point as point:every=N[:limit=M][:delay=D] (repeatable; chaos testing only)")
	flag.Parse()

	for _, spec := range faults {
		if err := faultpoint.Set(spec); err != nil {
			return fmt.Errorf("-fault %q: %w", spec, err)
		}
		log.Printf("WARNING: fault injection armed: %s", spec)
	}

	par := *parallel
	if par == 0 {
		par = -1
	}

	// Durable boot: the corpus store is recovered BEFORE the service is
	// built and the listener opens — a failed recovery (mid-file
	// corruption) refuses to start rather than serve a corpus that
	// silently disagrees with past acknowledgments.
	var persist *store.Store
	if *dataDir != "" {
		var err error
		persist, err = store.Open(*dataDir, store.Options{
			Fsync:            *fsync,
			CompactThreshold: *compactThreshold,
		})
		if err != nil {
			return fmt.Errorf("opening corpus store %s: %w", *dataDir, err)
		}
		defer persist.Close()
		s := persist.Stats()
		log.Printf("corpus store %s: %d graphs recovered (seq %d, %d journal records replayed, torn_tail=%v, fsync=%v)",
			*dataDir, s.Graphs, s.LastSeq, s.Recovered, s.TornTail, *fsync)
	}

	svc := service.New(service.Config{
		Slots:           *slots,
		MaxQueue:        *queue,
		CacheEntries:    *cache,
		Parallel:        par,
		Workers:         *workers,
		BatchSize:       *batch,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		Persist:         persist,
		Observe:         *observe,
	})
	if err := seedCorpus(svc, persist != nil, corpus, *corpusSeed); err != nil {
		return err
	}

	srv := &server{
		svc:               svc,
		store:             persist,
		defaultIterations: *iterations,
		start:             time.Now(),
		version:           buildVersion(),
	}
	if *logRequests {
		srv.logEvery = max(1, *logSample)
	}
	if *debugAddr != "" {
		// The pprof surface rides a SIDE listener with its own mux:
		// profiles stay off the public address, and importing
		// net/http/pprof's DefaultServeMux registration is avoided.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
		defer dsrv.Close()
		go func() {
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener %s: %v", *debugAddr, err)
			}
		}()
		log.Printf("debug listener on %s (/debug/pprof/)", *debugAddr)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.routes(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)

	log.Printf("cycleserved listening on %s (%d corpus graphs)", *addr, len(svc.GraphNames()))
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		// Graceful drain: stop admitting (admit middleware starts
		// returning 503, healthz flips to draining), let accepted async
		// jobs and in-flight requests finish, then close listeners. Every
		// step shares the one drain budget.
		log.Printf("received %v: draining (timeout %v)", sig, *drainTimeout)
		srv.draining.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := svc.DrainJobs(ctx); err != nil {
			log.Printf("drain: async jobs still running after %v: %v", *drainTimeout, err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("drain: forced close with connections open: %v", err)
		}
		log.Printf("cycleserved drained; exiting")
		return nil
	}
}

// seedCorpus realizes the -corpus name=spec flags into the service. With
// a durable store behind the service (durable = true) the seeded graphs
// are PERSISTED — created through the WAL exactly like API mutations —
// so they can be edge-appended and deleted over the API like any other
// corpus graph. A name the store already holds is left alone: durable
// state (which may have been mutated over the API since the graph was
// first seeded) wins over the spec, with a warning when the structures
// differ. Memory-only servers register the graphs in the in-memory map.
func seedCorpus(svc *service.Service, durable bool, corpus []string, seed uint64) error {
	for _, entry := range corpus {
		name, spec, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("-corpus %q: want name=spec", entry)
		}
		g, err := graph.FromSpec(spec, seed)
		if err != nil {
			return fmt.Errorf("-corpus %q: %w", entry, err)
		}
		if have, ok := svc.NamedGraph(name); ok {
			// The durable store already holds this name from a previous run.
			// Same structure: the flag is satisfied. Different structure: the
			// store's value is (or descends from) acknowledged state — API
			// mutations since the first boot — and re-applying the spec would
			// silently undo it, so the durable value wins, loudly.
			if have.Fingerprint() == g.Fingerprint() {
				log.Printf("corpus %s: already durable (fp=%s), -corpus spec skipped", name, g.Fingerprint())
			} else {
				log.Printf("WARNING: corpus %s: durable store holds fingerprint %s, -corpus spec builds %s; durable state wins, spec skipped",
					name, have.Fingerprint(), g.Fingerprint())
			}
			continue
		}
		if durable {
			err = svc.CreateCorpus(name, g)
		} else {
			err = svc.RegisterGraph(name, g)
		}
		if err != nil {
			return fmt.Errorf("-corpus %q: %w", entry, err)
		}
		log.Printf("corpus %s: %s (n=%d m=%d fp=%s)", name, spec, g.NumNodes(), g.NumEdges(), g.Fingerprint())
	}
	return nil
}

type server struct {
	svc *service.Service
	// store is the durable corpus store behind the service, nil without
	// -data-dir; the handler layer only reads its stats (mutations go
	// through the service).
	store             *store.Store
	defaultIterations int
	// draining flips once on SIGTERM/SIGINT: admission stops (503 +
	// Retry-After), healthz reports draining so load balancers pull the
	// instance, and in-flight work runs to completion.
	draining atomic.Bool
	// start anchors healthz's uptime_seconds; version is the toolchain-
	// stamped build identity (see buildVersion). Zero values (direct
	// struct construction in tests) degrade to uptime-since-epoch-zero
	// and an empty version, never an error.
	start   time.Time
	version string
	// logEvery > 0 logs every logEvery-th detection completion as a
	// key=value line; logSeq is the sampling counter.
	logEvery int64
	logSeq   atomic.Int64
}

// buildVersion is the binary's identity for healthz: the main module
// version plus the VCS revision the Go toolchain stamped into the build
// (no ldflags ceremony needed). A pseudo-version already ends in the
// revision, so the suffix is only added when it brings new information.
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			rev := s.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if !strings.Contains(v, rev) {
				return v + "+" + rev
			}
			break
		}
	}
	return v
}

// routes builds the full handler tree — every endpoint behind the admit
// middleware. Extracted from run so the HTTP tests drive the real
// routing table.
func (srv *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", srv.handleHealth)
	mux.HandleFunc("GET /metrics", srv.handleMetrics)
	mux.HandleFunc("GET /v1/stats", srv.handleStats)
	mux.HandleFunc("GET /v1/store", srv.handleStore)
	mux.HandleFunc("GET /v1/corpus", srv.handleCorpus)
	mux.HandleFunc("POST /v1/corpus/{name}", srv.handleCorpusCreate)
	mux.HandleFunc("POST /v1/corpus/{name}/edges", srv.handleCorpusAddEdges)
	mux.HandleFunc("DELETE /v1/corpus/{name}", srv.handleCorpusDelete)
	mux.HandleFunc("POST /v1/detect", srv.handleDetect)
	mux.HandleFunc("POST /v1/jobs", srv.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", srv.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/witness", srv.handleWitness)
	return srv.admit(mux)
}

// admit is the outermost middleware: once the server is draining, every
// endpoint except healthz and metrics (which must stay readable so
// orchestrators see the state change and scrapers see the drain) is
// refused up front with a retryable 503.
func (srv *server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if srv.draining.Load() && r.URL.Path != "/healthz" && r.URL.Path != "/metrics" {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, apiError{"server is draining"})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// statusClientClosedRequest is the de-facto standard (nginx) status for
// "the client went away before we could answer".
const statusClientClosedRequest = 499

// statusFor maps the service error taxonomy onto HTTP statuses. Anything
// outside the taxonomy is a request the caller can fix (400).
func statusFor(err error) int {
	switch {
	case errors.Is(err, service.ErrDeadline):
		return http.StatusRequestTimeout
	case errors.Is(err, service.ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, service.ErrCancelled):
		return statusClientClosedRequest
	case errors.Is(err, service.ErrInternal):
		return http.StatusServiceUnavailable
	case errors.Is(err, service.ErrDuplicateCorpus):
		return http.StatusConflict
	case errors.Is(err, service.ErrUnknownCorpus):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

type apiError struct {
	Error string `json:"error"`
}

// decodeBody reads the request body (at most 64 MiB) as exactly one JSON
// value into v — unknown keys and anything after the value but
// whitespace are errors — and answers 400 itself when it cannot. Every
// handler that reads a body goes through it.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := service.DecodeStrict(http.MaxBytesReader(w, r.Body, 64<<20), v); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf("decoding request: %v", err)})
		return false
	}
	return true
}

func (srv *server) decodeRequest(w http.ResponseWriter, r *http.Request) (*service.Request, bool) {
	var wire service.WireRequest
	if !decodeBody(w, r, &wire) {
		return nil, false
	}
	req, err := srv.svc.Resolve(&wire, srv.defaultIterations)
	if err != nil {
		writeJSON(w, statusFor(err), apiError{err.Error()})
		return nil, false
	}
	return req, true
}

func (srv *server) handleDetect(w http.ResponseWriter, r *http.Request) {
	req, ok := srv.decodeRequest(w, r)
	if !ok {
		return
	}
	faultpoint.Sleep(faultpoint.HandlerSlow)
	// clientTraced: the client asked for stage timing in its response.
	// When only the completion log wants stages, attach a tracer without
	// changing what the client gets back.
	clientTraced := req.Trace != nil
	if srv.logEvery > 0 && req.Trace == nil {
		req.Trace = &obs.Trace{}
	}
	start := time.Now()
	resp, info, err := srv.svc.DoInfo(r.Context(), req)
	elapsed := time.Since(start)
	if err != nil {
		status := statusFor(err)
		srv.logRequest(req, info, status, elapsed, err)
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			// Both shed and contained-panic failures are transient: tell
			// well-behaved clients when to come back.
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, status, apiError{err.Error()})
		return
	}
	srv.logRequest(req, info, http.StatusOK, elapsed, nil)
	// Serve-path metadata rides in headers so the body — the cached
	// verdict — is byte-identical however the request was served.
	w.Header().Set("X-Evencycle-Source", string(info.Source))
	w.Header().Set("X-Evencycle-Elapsed-Ns", fmt.Sprintf("%d", elapsed.Nanoseconds()))
	if info.Batch > 0 {
		// Computed requests only: the size of the engine batch that served
		// this request (1 = solo session, > 1 = fused with other misses).
		w.Header().Set("X-Evencycle-Batch", fmt.Sprintf("%d", info.Batch))
	}
	if clientTraced {
		// The opt-in trace: per-stage headers plus a trace_ns object
		// wrapped AROUND the verdict. Untraced responses keep the exact
		// cached-verdict bytes.
		traceNS := make(map[string]int64, obs.NumStages)
		req.Trace.Each(func(st obs.Stage, ns int64) {
			w.Header().Set("X-Evencycle-Stage-"+strings.ReplaceAll(st.String(), "_", "-"), fmt.Sprintf("%d", ns))
			traceNS[st.String()] = ns
		})
		writeJSON(w, http.StatusOK, struct {
			*service.Response
			TraceNS map[string]int64 `json:"trace_ns"`
		}{resp, traceNS})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// logRequest emits the sampled key=value completion line (-log-requests,
// -log-sample): serve path, status, total and per-stage milliseconds.
func (srv *server) logRequest(req *service.Request, info service.Info, status int, elapsed time.Duration, err error) {
	if srv.logEvery <= 0 || srv.logSeq.Add(1)%srv.logEvery != 0 {
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "request path=/v1/detect algo=%s k=%d fp=%s source=%s batch=%d status=%d total_ms=%.3f",
		req.Algo, req.K, req.Graph.Fingerprint(), info.Source, info.Batch, status,
		float64(elapsed.Nanoseconds())/1e6)
	req.Trace.Each(func(st obs.Stage, ns int64) {
		fmt.Fprintf(&sb, " %s_ms=%.3f", st, float64(ns)/1e6)
	})
	if err != nil {
		fmt.Fprintf(&sb, " err=%q", err)
	}
	log.Print(sb.String())
}

// handleMetrics serves the Prometheus text exposition of the service
// registry (counters, gauges and — on an observed server — the latency,
// stage, engine, gate and store histograms).
func (srv *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := srv.svc.Metrics().WritePrometheus(w); err != nil {
		log.Printf("write metrics: %v", err)
	}
}

func (srv *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := srv.decodeRequest(w, r)
	if !ok {
		return
	}
	id := srv.svc.Submit(req)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

func (srv *server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := srv.svc.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job id"})
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (srv *server) handleWitness(w http.ResponseWriter, r *http.Request) {
	job, ok := srv.svc.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job id"})
		return
	}
	if job.State != service.JobDone {
		writeJSON(w, http.StatusConflict, apiError{fmt.Sprintf("job is %s, not done", job.State)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"found":   job.Response.Found,
		"witness": job.Response.Witness,
	})
}

func (srv *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, srv.svc.Stats())
}

type corpusEntry struct {
	Name        string `json:"name"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Fingerprint string `json:"fingerprint"`
}

// mutationEntry is the mutation response: the resulting corpus entry plus
// the parent→child lineage edge and what the warm-start path did. A Noop
// response reports parent_fingerprint == fingerprint and nothing warmed.
type mutationEntry struct {
	corpusEntry
	ParentFingerprint string `json:"parent_fingerprint"`
	Noop              bool   `json:"noop,omitempty"`
	WarmStarts        int    `json:"warm_starts"`
	Fallbacks         int    `json:"fallbacks"`
}

func (srv *server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	names := srv.svc.GraphNames()
	out := make([]corpusEntry, 0, len(names))
	for _, name := range names {
		g, _ := srv.svc.NamedGraph(name)
		out = append(out, corpusEntry{
			Name: name, N: g.NumNodes(), M: g.NumEdges(), Fingerprint: g.Fingerprint().String(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// corpusEntryFor renders one corpus graph for mutation responses.
func corpusEntryFor(name string, g *graph.Graph) corpusEntry {
	return corpusEntry{Name: name, N: g.NumNodes(), M: g.NumEdges(), Fingerprint: g.Fingerprint().String()}
}

// wireCorpusCreate is the body of POST /v1/corpus/{name}: an inline
// edge list, or a generator spec with its seed — exactly one.
type wireCorpusCreate struct {
	Graph *service.WireGraph `json:"graph,omitempty"`
	Spec  string             `json:"spec,omitempty"`
	Seed  uint64             `json:"seed,omitempty"`
}

// Remote generation bounds: a client-supplied spec runs a generator ON
// THE SERVER, so the create handler bounds the declared output size
// before any generation work starts. Independent of (and tighter than)
// the durable store's per-record frame cap, which still applies to the
// built graph.
const (
	maxRemoteSpecNodes = 4 << 20
	maxRemoteSpecEdges = 8 << 20
)

// checkRemoteSpec admits a generator spec supplied by an HTTP client:
// pure-generator kinds only — file: would make the server read an
// arbitrary server-side path as an edge list — and declared sizes inside
// the remote-generation bounds. Operators keep the full spec language
// (file: included, no size bound) through the -corpus flag.
func checkRemoteSpec(spec string) error {
	kind, n, m, err := graph.SpecCost(spec)
	if err != nil {
		return err
	}
	if kind == "file" {
		return errors.New("file: specs are not accepted over the API (they read server-side paths); send the graph inline or use the -corpus flag")
	}
	if n < 0 || m < 0 || n > maxRemoteSpecNodes || m > maxRemoteSpecEdges {
		return fmt.Errorf("spec %q declares n=%d m=%d, outside the remote-generation bounds (0 ≤ n ≤ %d, 0 ≤ m ≤ %d); use the -corpus flag for larger graphs",
			spec, n, m, maxRemoteSpecNodes, maxRemoteSpecEdges)
	}
	return nil
}

func (srv *server) handleCorpusCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var body wireCorpusCreate
	if !decodeBody(w, r, &body) {
		return
	}
	var g *graph.Graph
	var err error
	switch {
	case body.Graph != nil && body.Spec != "":
		writeJSON(w, http.StatusBadRequest, apiError{"request ships both an inline graph and a spec — pick one"})
		return
	case body.Graph != nil:
		g, err = body.Graph.Build()
	case body.Spec != "":
		if err := checkRemoteSpec(body.Spec); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
			return
		}
		g, err = graph.FromSpec(body.Spec, body.Seed)
	default:
		writeJSON(w, http.StatusBadRequest, apiError{"request has neither graph nor spec"})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	if err := srv.svc.CreateCorpus(name, g); err != nil {
		writeJSON(w, statusFor(err), apiError{err.Error()})
		return
	}
	// The 201 is the durability acknowledgment: with -data-dir the
	// mutation is journaled (and fsynced under -fsync) before this line.
	writeJSON(w, http.StatusCreated, corpusEntryFor(name, g))
}

// wireCorpusEdges is the body of POST /v1/corpus/{name}/edges.
type wireCorpusEdges struct {
	Edges [][2]graph.NodeID `json:"edges"`
}

func (srv *server) handleCorpusAddEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var body wireCorpusEdges
	if !decodeBody(w, r, &body) {
		return
	}
	if len(body.Edges) == 0 {
		writeJSON(w, http.StatusBadRequest, apiError{"request ships no edges"})
		return
	}
	mut, err := srv.svc.AddCorpusEdges(name, body.Edges)
	if err != nil {
		writeJSON(w, statusFor(err), apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, mutationEntry{
		corpusEntry:       corpusEntryFor(name, mut.Graph),
		ParentFingerprint: mut.Parent.String(),
		Noop:              mut.Noop,
		WarmStarts:        mut.WarmStarts,
		Fallbacks:         mut.Fallbacks,
	})
}

func (srv *server) handleCorpusDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := srv.svc.DeleteCorpus(name); err != nil {
		writeJSON(w, statusFor(err), apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (srv *server) handleStore(w http.ResponseWriter, r *http.Request) {
	if srv.store == nil {
		writeJSON(w, http.StatusNotFound, apiError{"server runs without -data-dir: no durable store"})
		return
	}
	writeJSON(w, http.StatusOK, srv.store.Stats())
}

func (srv *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"ok":             true,
		"uptime_seconds": time.Since(srv.start).Seconds(),
		"version":        srv.version,
	}
	if srv.draining.Load() {
		body["ok"] = false
		body["draining"] = true
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}
