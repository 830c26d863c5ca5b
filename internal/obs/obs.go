package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram over int64 observations in some
// native unit (typically nanoseconds for durations). Observations are
// two or three atomic adds — no locks, no allocation — so the hot path
// may call Observe freely. The bucket layout is frozen at construction.
//
// At exposition time every native value is multiplied by the scale
// factor passed at registration (1e-9 turns nanoseconds into the
// seconds base unit Prometheus expects).
type Histogram struct {
	upper  []int64 // ascending upper bounds, native units; +Inf implicit
	counts []atomic.Int64
	sum    atomic.Int64
}

func newHistogram(upper []int64) *Histogram {
	bounds := make([]int64, len(upper))
	copy(bounds, upper)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending: %v", upper))
		}
	}
	return &Histogram{upper: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value in native units.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values in native units.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// DurationBuckets returns the default latency bucket bounds in
// nanoseconds: 10µs up to 5s in a 1-2.5-5 progression.
func DurationBuckets() []int64 {
	return []int64{
		10e3, 25e3, 50e3, 100e3, 250e3, 500e3, // 10µs .. 500µs
		1e6, 2.5e6, 5e6, 10e6, 25e6, 50e6, 100e6, 250e6, 500e6, // 1ms .. 500ms
		1e9, 2.5e9, 5e9, // 1s .. 5s
	}
}

// RoundBuckets returns bucket bounds for engine round counts.
func RoundBuckets() []int64 {
	return []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}
}

// SizeBuckets returns power-of-two bucket bounds from 1 up to max
// (inclusive when max is a power of two). Useful for batch fill sizes
// and byte counts.
func SizeBuckets(max int64) []int64 {
	var b []int64
	for v := int64(1); v <= max; v *= 2 {
		b = append(b, v)
	}
	return b
}

// series is one labeled member of a family: a histogram, or a value
// sampled by fn at collection time.
type series struct {
	labels string // pre-rendered `key="value"` pairs, "" when unlabeled
	fn     func() int64
	hist   *Histogram
}

type family struct {
	name, help, typ string
	scale           float64 // histogram exposition multiplier
	series          []*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration takes a lock; reads on registered
// metrics never do. Metrics sharing a name form one family (one
// HELP/TYPE header) distinguished by labels.
type Registry struct {
	mu       sync.Mutex
	families []*family
	index    map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

// Func registers a series of type typ ("counter" or "gauge") whose
// value is sampled by calling fn at exposition time, carrying one
// key="value" label, or none when key is "". Series sharing a name form
// one family. fn must be safe to call from the scrape goroutine, and a
// counter's fn monotone non-decreasing.
func (r *Registry) Func(name, help, typ, key, value string, fn func() int64) {
	s := &series{fn: fn}
	if key != "" {
		s.labels = renderLabel(key, value)
	}
	r.register(name, help, typ, 0, s)
}

// Histogram registers and returns an unlabeled histogram with the given
// ascending bucket upper bounds (native units) and exposition scale
// (native unit → Prometheus base unit, e.g. 1e-9 for nanoseconds).
func (r *Registry) Histogram(name, help string, buckets []int64, scale float64) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, "histogram", scale, &series{hist: h})
	return h
}

// LabeledHistogram registers and returns a histogram carrying one
// key="value" label. Histograms sharing a name form one family and must
// share bucket bounds and scale.
func (r *Registry) LabeledHistogram(name, help, key, value string, buckets []int64, scale float64) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, "histogram", scale, &series{labels: renderLabel(key, value), hist: h})
	return h
}

func (r *Registry) register(name, help, typ string, scale float64, s *series) {
	if !ValidMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	if strings.ContainsAny(help, "\n") {
		panic("obs: metric help must be a single line: " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.index[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ, scale: scale}
		r.index[name] = fam
		r.families = append(r.families, fam)
	} else {
		if fam.typ != typ {
			panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, fam.typ, typ))
		}
		if typ == "histogram" && fam.scale != scale {
			panic("obs: histogram family " + name + " registered with differing scales")
		}
	}
	for _, prev := range fam.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate registration of %s{%s}", name, s.labels))
		}
	}
	if typ == "histogram" && len(fam.series) > 0 {
		prev, next := fam.series[0].hist.upper, s.hist.upper
		if len(prev) != len(next) {
			panic("obs: histogram family " + name + " registered with differing buckets")
		}
		for i := range prev {
			if prev[i] != next[i] {
				panic("obs: histogram family " + name + " registered with differing buckets")
			}
		}
	}
	fam.series = append(fam.series, s)
}

// ValidMetricName reports whether name matches the Prometheus metric
// name charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// ValidLabelName reports whether name matches the Prometheus label name
// charset [a-zA-Z_][a-zA-Z0-9_]*.
func ValidLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

func renderLabel(key, value string) string {
	if !ValidLabelName(key) {
		panic("obs: invalid label name " + strconv.Quote(key))
	}
	return key + "=" + strconv.Quote(value)
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4, exemplar-free). Families
// appear in registration order; each carries exactly one # HELP and one
// # TYPE line. Histogram buckets are emitted cumulatively with a
// trailing +Inf bucket, _sum, and _count per series.
//
// Collection is not a single atomic snapshot across metrics, but each
// histogram's cumulative buckets are derived from one pass over its
// per-bucket counts, so bucket monotonicity always holds within a
// series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()

	var b strings.Builder
	for _, fam := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.name, fam.typ)
		for _, s := range fam.series {
			if s.hist != nil {
				writeHistogram(&b, fam, s)
			} else {
				writeSample(&b, fam.name, s.labels, float64(s.fn()))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

func writeHistogram(b *strings.Builder, fam *family, s *series) {
	h := s.hist
	scale := fam.scale
	if scale == 0 {
		scale = 1
	}
	var cum int64
	for i, bound := range h.upper {
		cum += h.counts[i].Load()
		writeBucket(b, fam.name, s.labels, formatValue(float64(bound)*scale), cum)
	}
	cum += h.counts[len(h.upper)].Load()
	writeBucket(b, fam.name, s.labels, "+Inf", cum)
	writeSample(b, fam.name+"_sum", s.labels, float64(h.sum.Load())*scale)
	b.WriteString(fam.name)
	b.WriteString("_count")
	if s.labels != "" {
		b.WriteByte('{')
		b.WriteString(s.labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')
}

func writeBucket(b *strings.Builder, name, labels, le string, cum int64) {
	b.WriteString(name)
	b.WriteString("_bucket{")
	if labels != "" {
		b.WriteString(labels)
		b.WriteByte(',')
	}
	b.WriteString(`le="`)
	b.WriteString(le)
	b.WriteString(`"} `)
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// sortedLabelKeys is kept for parse.go; declared here so both files
// share one small helper set.
func sortedLabelKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
