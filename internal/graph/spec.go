package graph

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// SpecHelp documents the generator-spec mini-language accepted by
// FromSpec, shared by the cycledetect and cycleserved commands.
const SpecHelp = `gnm:N:M          Erdős–Rényi G(N,M)
planted:N:L:AVG  sparse host (avg degree AVG) + planted C_L
heavy:N:L:HUB    planted C_L through a degree-HUB hub
highgirth:N:M:G  girth > G
pg:Q             PG(2,Q) point–line incidence graph (C₄-free)
file:PATH        edge-list file ("n m" header then "u v" lines)`

// FromSpec builds a graph from a generator spec string (see SpecHelp for
// the accepted forms). Randomized generators draw from NewRand(seed), so a
// (spec, seed) pair names one reproducible graph — the detection service's
// corpus registry and the load harness rely on exactly that.
func FromSpec(spec string, seed uint64) (*Graph, error) {
	parts := strings.Split(spec, ":")
	atoi := func(i int) (int, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("graph: generator %q: missing field %d", spec, i)
		}
		return strconv.Atoi(parts[i])
	}
	atof := func(i int) (float64, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("graph: generator %q: missing field %d", spec, i)
		}
		return strconv.ParseFloat(parts[i], 64)
	}
	rng := NewRand(seed)
	switch parts[0] {
	case "gnm":
		n, err := atoi(1)
		if err != nil {
			return nil, err
		}
		m, err := atoi(2)
		if err != nil {
			return nil, err
		}
		return Gnm(n, m, rng), nil
	case "planted":
		n, err := atoi(1)
		if err != nil {
			return nil, err
		}
		l, err := atoi(2)
		if err != nil {
			return nil, err
		}
		avg, err := atof(3)
		if err != nil {
			return nil, err
		}
		g, _, err := PlantedLight(n, l, avg, rng)
		return g, err
	case "heavy":
		n, err := atoi(1)
		if err != nil {
			return nil, err
		}
		l, err := atoi(2)
		if err != nil {
			return nil, err
		}
		hub, err := atoi(3)
		if err != nil {
			return nil, err
		}
		g, _, err := PlantedHeavy(n, l, hub, 1.5, rng)
		return g, err
	case "highgirth":
		n, err := atoi(1)
		if err != nil {
			return nil, err
		}
		m, err := atoi(2)
		if err != nil {
			return nil, err
		}
		girth, err := atoi(3)
		if err != nil {
			return nil, err
		}
		return HighGirth(n, m, girth, rng), nil
	case "pg":
		q, err := atoi(1)
		if err != nil {
			return nil, err
		}
		return ProjectivePlaneIncidence(q)
	case "file":
		if len(parts) < 2 {
			return nil, fmt.Errorf("graph: file generator needs a path")
		}
		f, err := os.Open(strings.Join(parts[1:], ":"))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ReadEdgeList(f)
	default:
		return nil, fmt.Errorf("graph: unknown generator %q", parts[0])
	}
}

// SpecCost parses a generator spec and reports its kind together with a
// conservative upper estimate of the graph it would build — vertices and
// edges — WITHOUT generating anything. Servers that accept specs from
// untrusted clients use it for admission control: bounding n/m before
// running a generator, and refusing kinds that touch server-side state
// (the "file" kind reports zero cost because the path's size is
// unknowable from the spec alone — callers that cannot trust the spec
// author must reject it outright).
func SpecCost(spec string) (kind string, n, m int, err error) {
	parts := strings.Split(spec, ":")
	kind = parts[0]
	atoi := func(i int) (int, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("graph: generator %q: missing field %d", spec, i)
		}
		return strconv.Atoi(parts[i])
	}
	atof := func(i int) (float64, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("graph: generator %q: missing field %d", spec, i)
		}
		return strconv.ParseFloat(parts[i], 64)
	}
	switch kind {
	case "gnm", "highgirth":
		// Both declare n and m directly (highgirth's m is a target the
		// generator never exceeds).
		if n, err = atoi(1); err != nil {
			return kind, 0, 0, err
		}
		m, err = atoi(2)
		return kind, n, m, err
	case "planted":
		var avg float64
		if n, err = atoi(1); err != nil {
			return kind, 0, 0, err
		}
		if _, err = atoi(2); err != nil { // cycle length: validated, not a cost
			return kind, 0, 0, err
		}
		if avg, err = atof(3); err != nil {
			return kind, 0, 0, err
		}
		// Host edges ≈ n·avg/2, plus at most n cycle edges.
		return kind, n, int(float64(n)*avg/2) + n, nil
	case "heavy":
		var hub int
		if n, err = atoi(1); err != nil {
			return kind, 0, 0, err
		}
		if _, err = atoi(2); err != nil {
			return kind, 0, 0, err
		}
		if hub, err = atoi(3); err != nil {
			return kind, 0, 0, err
		}
		// Fixed host avg degree 1.5 (< n edges), plus hub spokes, plus at
		// most n cycle edges.
		return kind, n, n + hub + n, nil
	case "pg":
		var q int
		if q, err = atoi(1); err != nil {
			return kind, 0, 0, err
		}
		if q < 0 || q > 1<<20 {
			// Past any plausible admission bound; report saturated costs
			// instead of overflowing q².
			return kind, math.MaxInt, math.MaxInt, nil
		}
		p := q*q + q + 1 // points (= lines) of PG(2,q)
		return kind, 2 * p, p * (q + 1), nil
	case "file":
		if len(parts) < 2 {
			return kind, 0, 0, fmt.Errorf("graph: file generator needs a path")
		}
		return kind, 0, 0, nil
	default:
		return kind, 0, 0, fmt.Errorf("graph: unknown generator %q", kind)
	}
}
