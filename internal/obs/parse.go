package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its label set,
// and a value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsedFamily is one metric family reconstructed from # HELP/# TYPE
// headers and the samples that follow them.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Exposition is a fully parsed /metrics payload.
type Exposition struct {
	Families []*ParsedFamily
	byName   map[string]*ParsedFamily
}

// baseName strips the histogram sample suffixes so _bucket/_sum/_count
// lines attach to their family.
func baseName(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// ParseExposition parses the Prometheus text exposition format
// strictly: every sample must follow a # HELP and # TYPE header for its
// family, names and labels must match the Prometheus charsets, and
// values must parse as floats. It does NOT validate histogram
// consistency — call Exposition.Validate for that.
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{byName: make(map[string]*ParsedFamily)}
	helps := make(map[string]string)
	types := make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseHeader(exp, helps, types, line, lineNo); err != nil {
				return nil, err
			}
			continue
		}
		sample, err := parseSample(line, lineNo)
		if err != nil {
			return nil, err
		}
		base := baseName(sample.Name, types)
		fam := exp.byName[base]
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %q before its # TYPE header", lineNo, sample.Name)
		}
		if _, ok := helps[base]; !ok {
			return nil, fmt.Errorf("line %d: sample %q has no # HELP header", lineNo, sample.Name)
		}
		fam.Samples = append(fam.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, nil
}

func parseHeader(exp *Exposition, helps, types map[string]string, line string, lineNo int) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return fmt.Errorf("line %d: malformed comment line %q", lineNo, line)
	}
	switch fields[1] {
	case "HELP":
		name := fields[2]
		if !ValidMetricName(name) {
			return fmt.Errorf("line %d: invalid metric name %q in HELP", lineNo, name)
		}
		if _, dup := helps[name]; dup {
			return fmt.Errorf("line %d: duplicate HELP for %q", lineNo, name)
		}
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		helps[name] = help
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
		}
		name, typ := fields[2], fields[3]
		if !ValidMetricName(name) {
			return fmt.Errorf("line %d: invalid metric name %q in TYPE", lineNo, name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
		}
		if _, dup := types[name]; dup {
			return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
		}
		types[name] = typ
		fam := &ParsedFamily{Name: name, Help: helps[name], Type: typ}
		exp.byName[name] = fam
		exp.Families = append(exp.Families, fam)
	default:
		// Plain comments are legal; ignore.
	}
	return nil
}

func parseSample(line string, lineNo int) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		s.Name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return s, fmt.Errorf("line %d: unterminated label set in %q", lineNo, line)
		}
		if err := parseLabels(rest[brace+1:end], s.Labels, lineNo); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return s, fmt.Errorf("line %d: no value in sample %q", lineNo, line)
		}
		s.Name = rest[:sp]
		rest = strings.TrimSpace(rest[sp+1:])
	}
	if !ValidMetricName(s.Name) {
		return s, fmt.Errorf("line %d: invalid metric name %q", lineNo, s.Name)
	}
	// Reject exemplars and timestamps: the repo's exposition is plain
	// `name value` only.
	if strings.ContainsAny(rest, " #") {
		return s, fmt.Errorf("line %d: unexpected trailing content after value in %q", lineNo, line)
	}
	v, err := parseFloat(rest)
	if err != nil {
		return s, fmt.Errorf("line %d: bad value %q: %v", lineNo, rest, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, into map[string]string, lineNo int) error {
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return fmt.Errorf("line %d: malformed label pair in %q", lineNo, body)
		}
		key := body[:eq]
		if !ValidLabelName(key) {
			return fmt.Errorf("line %d: invalid label name %q", lineNo, key)
		}
		rest := body[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("line %d: unquoted label value for %q", lineNo, key)
		}
		// Find the closing quote, honoring backslash escapes.
		i := 1
		for i < len(rest) {
			if rest[i] == '\\' {
				i += 2
				continue
			}
			if rest[i] == '"' {
				break
			}
			i++
		}
		if i >= len(rest) {
			return fmt.Errorf("line %d: unterminated label value for %q", lineNo, key)
		}
		val, err := strconv.Unquote(rest[:i+1])
		if err != nil {
			return fmt.Errorf("line %d: bad label value for %q: %v", lineNo, key, err)
		}
		if _, dup := into[key]; dup {
			return fmt.Errorf("line %d: duplicate label %q", lineNo, key)
		}
		into[key] = val
		body = rest[i+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return nil
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Validate checks exposition-level invariants beyond syntax: every
// histogram series must have monotone non-decreasing cumulative
// buckets, a +Inf bucket, and _sum/_count samples with _count equal to
// the +Inf bucket; counter and histogram values must be non-negative
// and finite.
func (e *Exposition) Validate() error {
	for _, fam := range e.Families {
		switch fam.Type {
		case "histogram":
			if err := validateHistogramFamily(fam); err != nil {
				return err
			}
		case "counter":
			for _, s := range fam.Samples {
				if s.Value < 0 || math.IsInf(s.Value, 0) || math.IsNaN(s.Value) {
					return fmt.Errorf("counter %s has invalid value %v", fam.Name, s.Value)
				}
			}
		}
	}
	return nil
}

func validateHistogramFamily(fam *ParsedFamily) error {
	type seriesAgg struct {
		bounds []float64
		counts []float64
		sum    *float64
		count  *float64
	}
	agg := map[string]*seriesAgg{}
	key := func(s Sample) string {
		parts := make([]string, 0, len(s.Labels))
		for _, k := range sortedLabelKeys(s.Labels) {
			if k == "le" {
				continue
			}
			parts = append(parts, k+"="+s.Labels[k])
		}
		return strings.Join(parts, ",")
	}
	get := func(s Sample) *seriesAgg {
		k := key(s)
		a := agg[k]
		if a == nil {
			a = &seriesAgg{}
			agg[k] = a
		}
		return a
	}
	for _, s := range fam.Samples {
		a := get(s)
		switch s.Name {
		case fam.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s bucket without le label", fam.Name)
			}
			bound, err := parseFloat(le)
			if err != nil {
				return fmt.Errorf("histogram %s: bad le %q", fam.Name, le)
			}
			a.bounds = append(a.bounds, bound)
			a.counts = append(a.counts, s.Value)
		case fam.Name + "_sum":
			v := s.Value
			a.sum = &v
		case fam.Name + "_count":
			v := s.Value
			a.count = &v
		default:
			return fmt.Errorf("histogram %s has stray sample %s", fam.Name, s.Name)
		}
	}
	for k, a := range agg {
		label := fam.Name
		if k != "" {
			label += "{" + k + "}"
		}
		if len(a.bounds) == 0 {
			return fmt.Errorf("histogram %s has no buckets", label)
		}
		for i := 1; i < len(a.bounds); i++ {
			if a.bounds[i] <= a.bounds[i-1] {
				return fmt.Errorf("histogram %s: bucket bounds not ascending", label)
			}
			if a.counts[i] < a.counts[i-1] {
				return fmt.Errorf("histogram %s: cumulative counts decrease at le=%v", label, a.bounds[i])
			}
		}
		last := a.bounds[len(a.bounds)-1]
		if !math.IsInf(last, 1) {
			return fmt.Errorf("histogram %s: missing +Inf bucket", label)
		}
		if a.sum == nil {
			return fmt.Errorf("histogram %s: missing _sum", label)
		}
		if a.count == nil {
			return fmt.Errorf("histogram %s: missing _count", label)
		}
		if *a.count != a.counts[len(a.counts)-1] {
			return fmt.Errorf("histogram %s: _count %v != +Inf bucket %v", label, *a.count, a.counts[len(a.counts)-1])
		}
	}
	return nil
}

// HistogramSnapshot is a point-in-time cumulative histogram extracted
// from an exposition.
type HistogramSnapshot struct {
	Bounds     []float64 // ascending, last is +Inf
	Cumulative []float64 // cumulative counts aligned with Bounds
	Sum        float64
	Count      float64
}

// MergedHistogram collects every series of a histogram family (all
// non-le label sets) into one snapshot. All series must share bucket
// bounds, which holds for registry-produced expositions. Returns nil
// when the family is absent — callers treat that as an empty histogram.
func (e *Exposition) MergedHistogram(name string) (*HistogramSnapshot, error) {
	fam := e.byName[name]
	if fam == nil {
		return nil, nil
	}
	if fam.Type != "histogram" {
		return nil, fmt.Errorf("%s is a %s, not a histogram", name, fam.Type)
	}
	snap := &HistogramSnapshot{}
	boundIndex := map[float64]int{}
	for _, s := range fam.Samples {
		switch s.Name {
		case name + "_bucket":
			bound, err := parseFloat(s.Labels["le"])
			if err != nil {
				return nil, fmt.Errorf("%s: bad le %q", name, s.Labels["le"])
			}
			idx, ok := boundIndex[bound]
			if !ok {
				idx = len(snap.Bounds)
				boundIndex[bound] = idx
				snap.Bounds = append(snap.Bounds, bound)
				snap.Cumulative = append(snap.Cumulative, 0)
			}
			snap.Cumulative[idx] += s.Value
		case name + "_sum":
			snap.Sum += s.Value
		case name + "_count":
			snap.Count += s.Value
		}
	}
	// Bounds arrive in per-series order; normalize.
	order := make([]int, len(snap.Bounds))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return snap.Bounds[order[a]] < snap.Bounds[order[b]] })
	bounds := make([]float64, len(order))
	cum := make([]float64, len(order))
	for i, idx := range order {
		bounds[i] = snap.Bounds[idx]
		cum[i] = snap.Cumulative[idx]
	}
	snap.Bounds, snap.Cumulative = bounds, cum
	return snap, nil
}

// CounterSum returns the sum of a counter family's samples across all
// label sets (0 when absent) and whether the family exists.
func (e *Exposition) CounterSum(name string) (float64, bool) {
	fam := e.byName[name]
	if fam == nil {
		return 0, false
	}
	var sum float64
	for _, s := range fam.Samples {
		sum += s.Value
	}
	return sum, true
}

// Value returns the value of the unique sample of name with exactly the
// given labels (nil means unlabeled), and whether it was found.
func (e *Exposition) Value(name string, labels map[string]string) (float64, bool) {
	fam := e.byName[baseNameLoose(e, name)]
	if fam == nil {
		return 0, false
	}
	for _, s := range fam.Samples {
		if s.Name != name {
			continue
		}
		if len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

func baseNameLoose(e *Exposition, name string) string {
	if e.byName[name] != nil {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suf); base != name && e.byName[base] != nil {
			return base
		}
	}
	return name
}
