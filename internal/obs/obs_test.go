package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1, 1} // (..10] (10..100] (100..1000] (1000..]
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if got := h.Count(); got != 6 {
		t.Errorf("Count = %d, want 6", got)
	}
	if got := h.Sum(); got != 5626 {
		t.Errorf("Sum = %d, want 5626", got)
	}
}

// TestExpositionGolden renders a registry exercising every metric kind
// and validates the full payload through the strict parser: HELP/TYPE
// present for every family, legal name charset, histogram bucket
// monotonicity, +Inf terminal bucket, and _sum/_count consistency.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Func("evencycle_requests_total", "requests observed", "counter", "", "", func() int64 { return 12 })
	for _, path := range []string{"hit", "computed"} {
		r.Func("evencycle_served_total", "served by path", "counter", "path", path, func() int64 { return 3 })
	}
	r.Func("evencycle_cache_entries", "cached verdicts", "gauge", "", "", func() int64 { return 41 })
	h := r.Histogram("evencycle_request_duration_seconds", "request latency",
		DurationBuckets(), 1e-9)
	h.ObserveDuration(75 * time.Microsecond)
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveDuration(12 * time.Second) // lands in +Inf
	lh := r.LabeledHistogram("evencycle_stage_duration_seconds", "stage latency",
		"stage", "engine", DurationBuckets(), 1e-9)
	lh.ObserveDuration(time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := b.String()

	exp, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition:\n%s\nerror: %v", text, err)
	}
	if err := exp.Validate(); err != nil {
		t.Fatalf("Validate:\n%s\nerror: %v", text, err)
	}

	// Every line must be a comment or a valid sample (the parser already
	// guarantees this); additionally check each family got exactly one
	// HELP and one TYPE line.
	for _, fam := range exp.Families {
		if strings.Count(text, "# HELP "+fam.Name+" ") != 1 {
			t.Errorf("family %s: want exactly one HELP line", fam.Name)
		}
		if strings.Count(text, "# TYPE "+fam.Name+" ") != 1 {
			t.Errorf("family %s: want exactly one TYPE line", fam.Name)
		}
	}
	if v, ok := exp.Value("evencycle_requests_total", nil); !ok || v != 12 {
		t.Errorf("requests_total = %v (found=%v), want 12", v, ok)
	}
	if sum, ok := exp.CounterSum("evencycle_served_total"); !ok || sum != 6 {
		t.Errorf("served_total sum = %v (found=%v), want 6", sum, ok)
	}
	snap, err := exp.MergedHistogram("evencycle_request_duration_seconds")
	if err != nil {
		t.Fatalf("MergedHistogram: %v", err)
	}
	if snap.Count != 3 {
		t.Errorf("histogram count = %v, want 3", snap.Count)
	}
	if !math.IsInf(snap.Bounds[len(snap.Bounds)-1], 1) {
		t.Errorf("last bound = %v, want +Inf", snap.Bounds[len(snap.Bounds)-1])
	}
	wantSum := (75*time.Microsecond + 3*time.Millisecond + 12*time.Second).Seconds()
	if math.Abs(snap.Sum-wantSum) > 1e-9 {
		t.Errorf("histogram sum = %v, want %v", snap.Sum, wantSum)
	}
	// No exemplars, no timestamps: every sample line is exactly
	// "name[{labels}] value".
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, " ") != 1 {
			t.Errorf("sample line has trailing content: %q", line)
		}
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":  "foo_total 1\n",
		"bad name":            "# HELP 9bad x\n# TYPE 9bad counter\n9bad 1\n",
		"bad value":           "# HELP a x\n# TYPE a counter\na one\n",
		"timestamp":           "# HELP a x\n# TYPE a counter\na 1 1700000000\n",
		"unterminated labels": "# HELP a x\n# TYPE a counter\na{x=\"y\" 1\n",
		"duplicate TYPE":      "# TYPE a counter\n# TYPE a counter\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parser accepted %q", name, text)
		}
	}
}

func TestValidateCatchesBrokenHistograms(t *testing.T) {
	cases := map[string]string{
		"missing +Inf": `# HELP h x
# TYPE h histogram
h_bucket{le="1"} 1
h_sum 1
h_count 1
`,
		"count mismatch": `# HELP h x
# TYPE h histogram
h_bucket{le="1"} 1
h_bucket{le="+Inf"} 2
h_sum 1
h_count 3
`,
		"non-monotone": `# HELP h x
# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`,
		"missing sum": `# HELP h x
# TYPE h histogram
h_bucket{le="+Inf"} 1
h_count 1
`,
	}
	for name, text := range cases {
		exp, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: parse error %v", name, err)
		}
		if err := exp.Validate(); err == nil {
			t.Errorf("%s: Validate accepted broken histogram", name)
		}
	}
}

// TestRegistryRace hammers every metric kind from many goroutines while
// a scraper renders the exposition, under -race in CI.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	var c, g atomic.Int64
	r.Func("race_total", "x", "counter", "", "", c.Load)
	r.Func("race_gauge", "x", "gauge", "kind", "updown", g.Load)
	h := r.Histogram("race_seconds", "x", DurationBuckets(), 1e-9)
	lh := r.LabeledHistogram("race_stage_seconds", "x", "stage", "engine", DurationBuckets(), 1e-9)

	const writers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(1)
				g.Add(1 - 2*(i&1))
				h.Observe(seed + i%1e6)
				lh.ObserveDuration(time.Duration(i % 1e7))
			}
		}(int64(w) * 1000)
	}
	for i := 0; i < 20; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		exp, err := ParseExposition(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("scrape %d unparseable: %v", i, err)
		}
		if err := exp.Validate(); err != nil {
			t.Fatalf("scrape %d invalid: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestTrace(t *testing.T) {
	var nilTrace *Trace
	nilTrace.Add(StageEngine, time.Second) // must not panic
	if nilTrace.Total() != 0 || nilTrace.Ns(StageEngine) != 0 {
		t.Fatal("nil trace should read zero")
	}
	nilTrace.Each(func(Stage, int64) { t.Fatal("nil trace Each fired") })

	tr := &Trace{}
	tr.Add(StageValidate, 10*time.Nanosecond)
	tr.Add(StageEngine, 30*time.Nanosecond)
	tr.Add(StageEngine, 5*time.Nanosecond)
	tr.Add(StageCacheInstall, -time.Second) // dropped
	if got := tr.Ns(StageEngine); got != 35 {
		t.Errorf("engine ns = %d, want 35", got)
	}
	if got := tr.Total(); got != 45 {
		t.Errorf("total = %d, want 45", got)
	}
	var seen []string
	tr.Each(func(s Stage, ns int64) { seen = append(seen, s.String()) })
	if strings.Join(seen, ",") != "validate,engine" {
		t.Errorf("Each order = %v", seen)
	}
	names := StageNames()
	if len(names) != int(NumStages) || names[0] != "validate" || names[4] != "cache_install" {
		t.Errorf("StageNames = %v", names)
	}
}

func TestValidNames(t *testing.T) {
	good := []string{"a", "evencycle_requests_total", "a:b", "_x", "A9"}
	bad := []string{"", "9a", "a-b", "a b", "a\"b"}
	for _, n := range good {
		if !ValidMetricName(n) {
			t.Errorf("ValidMetricName(%q) = false", n)
		}
	}
	for _, n := range bad {
		if ValidMetricName(n) {
			t.Errorf("ValidMetricName(%q) = true", n)
		}
	}
	if ValidLabelName("a:b") {
		t.Errorf("label names may not contain colons")
	}
	if !ValidLabelName("stage") {
		t.Errorf("ValidLabelName(stage) = false")
	}
}

func TestDisarmedObserveAllocs(t *testing.T) {
	h := newHistogram(DurationBuckets())
	var tr *Trace
	n := testing.AllocsPerRun(100, func() {
		h.Observe(123456)
		tr.Add(StageEngine, time.Millisecond)
	})
	if n != 0 {
		t.Fatalf("Observe allocated %v per run, want 0", n)
	}
}
