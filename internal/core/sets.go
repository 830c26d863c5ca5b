package core

import (
	"repro/internal/congest"
	"repro/internal/graph"
)

const kindSelect uint8 = 12 // "I am in S" announcement

// Sets constructs the three vertex sets of Algorithm 1 distributively
// (Instructions 1–5):
//
//	U = { u : deg(u) ≤ n^{1/k} }             (local computation)
//	S = { u : Bernoulli(p) }                 (local randomness)
//	W = { u ∉ S : |N(u) ∩ S| ≥ k² }          (one communication round:
//	                                          S-members announce themselves)
type Sets struct {
	Params Params

	// WAllNeighbors switches the W rule to the Section 3.5 variant
	// (bounded-length detection): W = all neighbors of S, with no
	// degree-count requirement.
	WAllNeighbors bool

	// PAt and LightMaxAt, when non-nil, override the n-dependent
	// parameters p and n^{1/k} per node. Fused disjoint-union sessions set
	// them so every component's membership draws use the component's own
	// parameterization (k, and hence the k² in the W rule, is shared by a
	// batch). Params still supplies K.
	PAt        []float64
	LightMaxAt []int32

	InU, InS, InW []bool
	SCount        []int32 // |N(u) ∩ S|
}

var _ congest.Handler = (*Sets)(nil)

// Init implements congest.Handler. It clears and reuses the membership
// arrays a previous run left when they have the capacity.
func (s *Sets) Init(rt *congest.Session) {
	n := rt.N()
	s.InU, s.InS, s.InW = cleared(s.InU, n), cleared(s.InS, n), cleared(s.InW, n)
	s.SCount = cleared(s.SCount, n)
	for u := 0; u < n; u++ {
		rt.WakeAt(graph.NodeID(u), 0)
	}
}

// HandleRound implements congest.Handler.
func (s *Sets) HandleRound(rt *congest.Session, u graph.NodeID, r int, inbox []congest.Message) {
	switch r {
	case 0:
		lightMax, p := s.Params.LightMax, s.Params.P
		if s.LightMaxAt != nil {
			lightMax, p = int(s.LightMaxAt[u]), s.PAt[u]
		}
		s.InU[u] = rt.Degree(u) <= lightMax
		s.InS[u] = rt.Rand(u).Float64() < p
		if s.InS[u] {
			rt.Broadcast(u, kindSelect, 0, 0)
		}
	default:
		for _, m := range inbox {
			if m.Kind() == kindSelect {
				s.SCount[u]++
			}
		}
		if s.WAllNeighbors {
			s.InW[u] = s.SCount[u] >= 1
		} else {
			s.InW[u] = !s.InS[u] && int(s.SCount[u]) >= s.Params.K*s.Params.K
		}
	}
}

// cleared returns buf re-sliced to n zero values, or a fresh array when
// buf lacks the capacity.
func cleared[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
