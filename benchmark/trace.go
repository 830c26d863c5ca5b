package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/deterministic"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// perLayer is the per-layer catalog of a traced run, led by the run
// diagnostics. A per-op metric of a layer the workload's ops skip (queue
// wait on a cache hit, journal bytes without -data-dir) reads 0, what the
// layer added to them, with a sample count of 0; the probe metrics are
// measured on the workload's own graphs for every workload.
var perLayer = append(slices.Clone(runDiagnostics), []metricDef{
	{"cycleserved.transport_us.p50", "us", "lower"},
	{"service.do_hit_ns.p50", "ns", "lower"},
	{"service.validate_us.p50", "us", "lower"},
	{"service.cache_install_us.p50", "us", "lower"},
	{"service.engine_us.p50", "us", "lower"},
	{"service.saved_ratio", "ratio", "higher"},
	{"service.sessions_per_computed", "ratio", "lower"},
	{"sched.queue_wait_us.p50", "us", "lower"},
	{"sched.queue_wait_us.p99", "us", "lower"},
	{"sched.batch_linger_us.p50", "us", "lower"},
	{"sched.batch_size.mean", "count", "higher"},
	{"graph.decode_us.p50", "us", "lower"},
	{"graph.fingerprint_us.p50", "us", "lower"},
	{"graph.splice_us.p50", "us", "lower"},
	{"graph.fingerprint_resume_us.p50", "us", "lower"},
	{"congest.session_ms.p50", "ms", "lower"},
	{"congest.ns_per_message", "ns", "lower"},
	{"congest.rounds_per_request", "count", "lower"},
	{"congest.messages_per_request", "count", "lower"},
	{"core.detect_ms.p50", "ms", "lower"},
	{"core.overflow_ratio", "ratio", "lower"},
	{"deterministic.detect_ms.p50", "ms", "lower"},
	{"incr.recheck_us.p50", "us", "lower"},
	{"incr.localized_ratio", "ratio", "higher"},
	{"store.add_edges_us.p50", "us", "lower"},
	{"store.add_edges_us.p99", "us", "lower"},
	{"store.wal_bytes_per_op", "B", "lower"},
	{"store.compactions", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}...)

// span is one timed interval of the traced run. Spans of one request or
// probe call share Trace; Parent is 0 for a root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	traces int
}

func (t *tracer) newTrace() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

func (t *tracer) add(trace, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// stageLayers names the span of each server stage in trace_ns, in
// request-lifecycle order.
var stageLayers = []struct{ stage, layer string }{
	{obs.StageValidate.String(), "service.validate"},
	{obs.StageQueueWait.String(), "sched.queue_wait"},
	{obs.StageBatchLinger.String(), "sched.batch_linger"},
	{obs.StageEngine.String(), "service.engine"},
	{obs.StageCacheInstall.String(), "service.cache_install"},
}

// addOp records one traced op: a client.op root, a span per HTTP call,
// and the server's stages laid end to end in lifecycle order inside their
// call, centred so the call's self time is the transport both ways.
func (t *tracer) addOp(op tracedOp) {
	tr := t.newTrace()
	root := t.add(tr, 0, "client.op", op.start, op.end)
	for _, c := range op.calls {
		id := t.add(tr, root, c.name, c.start, c.end)
		var total int64
		for _, st := range stageLayers {
			total += c.stages[st.stage]
		}
		at := c.start.Add(max(c.end.Sub(c.start)-time.Duration(total), 0) / 2)
		for _, st := range stageLayers {
			if ns, ok := c.stages[st.stage]; ok {
				t.add(tr, id, st.layer, at, at.Add(time.Duration(ns)))
				at = at.Add(time.Duration(ns))
			}
		}
	}
}

// selfStat is one row of the self-time table.
type selfStat struct {
	name  string
	count int
	self  int64 // total self time, ns
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of it its children cover, counting overlapping children
// once.
func selfTimes(spans []span) []selfStat {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfStat{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfStat{name: s.Name}
			byName[s.Name] = st
		}
		st.count++
		st.self += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make([]selfStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
	var sum, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		sum += v.hi - max(v.lo, end)
		end = v.hi
	}
	return sum
}

func printSelfTimes(w io.Writer, spans []span) {
	rows := selfTimes(spans)
	var total int64
	for _, r := range rows {
		total += r.self
	}
	fmt.Fprintf(w, "  %-32s %8s %12s %12s %7s\n", "span", "count", "self_ms", "mean_us", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-32s %8d %12.3f %12.3f %6.2f%%\n", r.name, r.count,
			float64(r.self)/1e6, float64(r.self)/float64(r.count)/1e3, 100*float64(r.self)/float64(max(total, 1)))
	}
}

// traceRun measures the workload untraced as measure does, then replays
// a prefix of it on a fresh server with "trace":true on every request,
// and then runs the in-process probes on the same inputs. It writes the
// spans to spansPath, prints the self-time table, and reports the
// per-layer metrics; the untraced run gives the run diagnostics and the
// baseline of the tracing overhead.
func traceRun(cfg *config, w *workload, in *inputs, spansPath string, stdout io.Writer) (*result, error) {
	res, err := measure(cfg, w, in)
	if err != nil {
		return nil, err
	}
	ops := w.traceOps
	if cfg.traceOps > 0 {
		ops = cfg.traceOps
	}
	tr := &tracer{epoch: time.Now()}
	srv, d, _, err := bringUp(cfg, w, in)
	if err != nil {
		return nil, err
	}
	r := &runner{s: srv, d: d, errs: &errLog{}}
	drive(r, w, in.seed, 0, cfg.warmup/2)
	before, err := srv.counters()
	if err != nil {
		srv.stop()
		return nil, err
	}
	var traced *phase
	if w.rate > 0 {
		traced = r.open(poissonSchedule(derive(in.seed, 500, 2), w.rate, time.Duration(float64(ops)/w.rate*float64(time.Second))), true)
	} else {
		traced = r.closed(0, ops, true)
	}
	after, err := srv.counters()
	srv.stop()
	if err != nil {
		return nil, err
	}
	traced.failed += d.verify()
	res.Attempted += traced.attempted
	res.Failed += traced.failed

	for _, op := range traced.ops {
		tr.addOp(op)
	}
	// From the traced pass: per detection, the time each server stage added
	// to it, the batch it ran in, and the transport. A detection that
	// skipped a stage (a cache hit skips all but validate) or ran in no
	// batch counts 0 there: that is what the layer added to it. The sample
	// count is the detections that reached the layer.
	stages := map[string][]float64{}
	reached := map[string]int{}
	var transport, batches []float64
	var rounds, messages float64
	for _, op := range traced.ops {
		for _, c := range op.calls {
			if c.stages == nil {
				continue // a mutation
			}
			var total int64
			for _, ns := range c.stages {
				total += ns
			}
			for _, sl := range stageLayers {
				ns, ok := c.stages[sl.stage]
				stages[sl.stage] = append(stages[sl.stage], float64(ns)/1e3)
				if ok {
					reached[sl.stage]++
				}
			}
			transport = append(transport, float64(c.end.Sub(c.start).Nanoseconds()-total)/1e3)
			batches = append(batches, float64(c.batch))
			if c.batch > 0 {
				reached["batch"]++
			}
			rounds += float64(c.rounds)
			messages += float64(c.messages)
		}
	}
	detects := len(transport)
	stagePct := func(name, stage string, p float64) {
		if v, ok := percentile(sortedCopy(stages[stage]), p); ok {
			res.set(name, v, reached[stage])
		}
	}
	res.setPct("cycleserved.transport_us.p50", transport, 0.5)
	stagePct("service.validate_us.p50", "validate", 0.5)
	stagePct("service.cache_install_us.p50", "cache_install", 0.5)
	stagePct("service.engine_us.p50", "engine", 0.5)
	stagePct("sched.queue_wait_us.p50", "queue_wait", 0.5)
	stagePct("sched.queue_wait_us.p99", "queue_wait", 0.99)
	stagePct("sched.batch_linger_us.p50", "batch_linger", 0.5)
	res.set("sched.batch_size.mean", mean(batches), reached["batch"])
	res.set("congest.rounds_per_request", rounds/float64(max(detects, 1)), detects)
	res.set("congest.messages_per_request", messages/float64(max(detects, 1)), detects)

	// From the server's counters over the traced pass. Sessions per
	// computed verdict count the server's whole life, setup included, so
	// that the workloads serving only cache hits still measure it.
	st, life := subStats(after.stats, before.stats), after.stats
	appendBytes, appends := after.appendBytes-before.appendBytes, after.appends-before.appends
	res.set("service.saved_ratio", float64(st.Hits+st.Coalesced+st.Amplified)/float64(max(st.Requests, 1)), int(st.Requests))
	res.set("service.sessions_per_computed", float64(life.EngineSessions)/float64(max(life.Computed, 1)), int(life.Computed))
	res.set("store.wal_bytes_per_op", appendBytes/float64(max(traced.attempted, 1)), int(appends))
	res.set("store.compactions", float64(after.store.Compactions-before.store.Compactions), int(appends))

	// The tracing overhead: the traced prefix's p50 op latency over the
	// untraced run's.
	t50, ok := percentile(sortedCopy(durations(traced.lat, time.Millisecond)), 0.5)
	u50, measured := res.Metrics["latency_p50_ms"]
	if ok && measured {
		res.set("trace.overhead_ratio", t50/u50, len(traced.lat))
	}

	probeFailed, err := runProbes(cfg, w, in, tr, res)
	if err != nil {
		return nil, err
	}
	res.Failed += probeFailed
	res.Correct = res.Correct && res.Failed == 0

	fmt.Fprintf(stdout, "%s: per-layer self time over %d spans (traced pass and probes)\n", w.name, len(tr.spans))
	printSelfTimes(stdout, tr.spans)
	fmt.Fprintf(stdout, "%s: p50 op latency %.4f ms untraced, %.4f ms traced; spans in %s\n", w.name, u50, t50, spansPath)
	return res, writeSpans(spansPath, tr.spans)
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runProbes times calls into each layer's public functions on the
// workload's graphs, recording a span around every call, and returns how
// many probe results failed their checks.
func runProbes(cfg *config, w *workload, in *inputs, tr *tracer, res *result) (int, error) {
	failed := 0
	check := func(err error) {
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "benchmark: probe check failed:", err)
		}
	}
	timed := func(name string, f func()) time.Duration {
		start := time.Now()
		f()
		end := time.Now()
		tr.add(tr.newTrace(), 0, name, start, end)
		return end.Sub(start)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	// service: the cache hit path on a warmed key, in process.
	svc := service.New(service.Config{Observe: true, Parallel: 1})
	req := &service.Request{Graph: in.graphs[0], Algo: service.AlgoDet, K: w.k}
	if _, _, err := svc.DoInfo(context.Background(), req); err != nil {
		return 0, fmt.Errorf("probe warm-up: %w", err)
	}
	var hits []float64
	for range 5000 {
		var info service.Info
		var err error
		d := timed("service.DoInfo", func() { _, info, err = svc.DoInfo(context.Background(), req) })
		if err == nil && info.Source != service.SourceCache {
			err = fmt.Errorf("warmed key served from %q", info.Source)
		}
		check(err)
		hits = append(hits, float64(d.Nanoseconds()))
	}
	res.setPct("service.do_hit_ns.p50", hits, 0.5)

	// graph: request decode plus build, first fingerprint, splice, resume.
	var decode, fingerprint, splice, resume []float64
	pegs := make([]*pegSource, len(in.graphs))
	for i := range pegs {
		pegs[i] = newPEG(in.graphs[i], derive(in.seed, 600, uint64(i)))
	}
	bodies := make([][]byte, len(in.graphs))
	for i := range bodies {
		bodies[i] = mustJSON(wireDetect{Algo: "det", K: w.k, Graph: in.wire[i]})
	}
	for i := range 32 {
		gi := i % len(in.graphs)
		var g *graph.Graph
		var err error
		decode = append(decode, us(timed("graph.decode", func() {
			var wr service.WireRequest
			if err = json.Unmarshal(bodies[gi], &wr); err == nil {
				g, err = wr.Graph.Build()
			}
		})))
		if err != nil {
			return 0, err
		}
		var fp graph.Fingerprint
		fingerprint = append(fingerprint, us(timed("graph.fingerprint", func() { fp = g.Fingerprint() })))
		if fp.String() != in.fps[gi] {
			check(fmt.Errorf("decoded graph fingerprint %s, want %s", fp, in.fps[gi]))
		}
	}
	res.setPct("graph.decode_us.p50", decode, 0.5)
	res.setPct("graph.fingerprint_us.p50", fingerprint, 0.5)
	var rechecks []float64
	fallbacks := 0
	live := make([]int, len(in.graphs)) // graphs that still admit a PEG edge
	for i := range live {
		live[i] = i
	}
	for i := 0; i < 64; {
		if len(live) == 0 {
			return 0, fmt.Errorf("no %s graph admits an edge at distance ≥ %d", w.name, pegMinDist)
		}
		gi := live[i%len(live)]
		e, ok := pegs[gi].next()
		if !ok {
			live = slices.DeleteFunc(live, func(x int) bool { return x == gi })
			continue
		}
		i++
		parent := in.graphs[gi]
		var child *graph.Graph
		var err error
		splice = append(splice, us(timed("graph.WithEdges", func() { child, err = parent.WithEdges([][2]graph.NodeID{e}) })))
		if err != nil {
			return 0, err
		}
		resume = append(resume, us(timed("graph.fingerprint_resume", func() { child.Fingerprint() })))
		if child.NumEdges() != parent.NumEdges()+1 {
			check(fmt.Errorf("splice of a fresh edge gave %d edges from %d", child.NumEdges(), parent.NumEdges()))
		}
		var rc *incr.Result
		rechecks = append(rechecks, us(timed("incr.Recheck", func() {
			rc, err = incr.Recheck(child, [][2]graph.NodeID{e}, w.k, incr.Options{})
		})))
		if err != nil {
			return 0, err
		}
		if rc.Fallback {
			fallbacks++
		} else {
			check(checkWitness(rc.Res.Found, rc.Res.Witness, child, w.k, in.free[gi]))
		}
	}
	res.setPct("graph.splice_us.p50", splice, 0.5)
	res.setPct("graph.fingerprint_resume_us.p50", resume, 0.5)
	res.setPct("incr.recheck_us.p50", rechecks, 0.5)
	res.set("incr.localized_ratio", float64(len(rechecks)-fallbacks)/float64(len(rechecks)), len(rechecks))

	// congest, core and deterministic: detector runs with every engine
	// session observed as a child span.
	var sessions, coreMS, detMS []float64
	var sessionNs, msgs float64
	overflows := 0
	// detect times one detector call as a span, with a congest.session
	// child per engine session the call observed.
	detect := func(name string, run func(observe func(int, time.Duration)) error) (float64, error) {
		var mu sync.Mutex // Observe runs on the engine session's goroutine
		var sess [][2]time.Time
		observe := func(_ int, wall time.Duration) {
			end := time.Now()
			mu.Lock()
			sess = append(sess, [2]time.Time{end.Add(-wall), end})
			mu.Unlock()
		}
		start := time.Now()
		err := run(observe)
		end := time.Now()
		trace := tr.newTrace()
		id := tr.add(trace, 0, name, start, end)
		for _, s := range sess {
			tr.add(trace, id, "congest.session", s[0], s[1])
			sessions = append(sessions, float64(s[1].Sub(s[0]))/float64(time.Millisecond))
			sessionNs += float64(s[1].Sub(s[0]).Nanoseconds())
		}
		return float64(end.Sub(start)) / float64(time.Millisecond), err
	}
	for i := range 24 {
		gi := i % len(in.graphs)
		g := in.graphs[gi]
		var cr *core.Result
		ms, err := detect("core.DetectEvenCycle", func(observe func(int, time.Duration)) (err error) {
			cr, err = core.DetectEvenCycle(g, w.k, core.Options{MaxIterations: evenIterations,
				Seed: derive(in.seed, 700, uint64(i)), Parallel: 1, Observe: observe})
			return err
		})
		if err != nil {
			return 0, err
		}
		coreMS = append(coreMS, ms)
		msgs += float64(cr.Messages)
		if cr.Overflowed {
			overflows++
		}
		check(checkWitness(cr.Found, cr.Witness, g, w.k, in.free[gi]))

		var dr *deterministic.Result
		ms, err = detect("deterministic.Detect", func(observe func(int, time.Duration)) (err error) {
			dr, err = deterministic.Detect(g, w.k, deterministic.Options{Observe: observe})
			return err
		})
		if err != nil {
			return 0, err
		}
		detMS = append(detMS, ms)
		msgs += float64(dr.Messages)
		check(checkWitness(dr.Found, dr.Witness, g, w.k, in.free[gi]))
	}
	res.setPct("congest.session_ms.p50", sessions, 0.5)
	res.set("congest.ns_per_message", sessionNs/max(msgs, 1), len(sessions))
	res.setPct("core.detect_ms.p50", coreMS, 0.5)
	res.set("core.overflow_ratio", float64(overflows)/float64(len(coreMS)), len(coreMS))
	res.setPct("deterministic.detect_ms.p50", detMS, 0.5)

	// store: durable single-edge appends, fsync on, into a scratch dir.
	dir, err := os.MkdirTemp(cfg.work, "probe-store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{Fsync: true})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	if err := st.Create("probe", in.graphs[0]); err != nil {
		return 0, err
	}
	peg := newPEG(in.graphs[0], derive(in.seed, 800))
	var appendsUS []float64
	for range 1000 {
		e, ok := peg.next()
		if !ok {
			return 0, fmt.Errorf("store probe: no edge at distance ≥ %d left", pegMinDist)
		}
		var err error
		appendsUS = append(appendsUS, us(timed("store.AddEdges", func() {
			_, err = st.AddEdges("probe", [][2]graph.NodeID{e})
		})))
		if err != nil {
			return 0, err
		}
	}
	res.setPct("store.add_edges_us.p50", appendsUS, 0.5)
	res.setPct("store.add_edges_us.p99", appendsUS, 0.99)
	return failed, st.Close()
}
