package core

import (
	"fmt"
	"math"
)

// Params carries the parameterization of Algorithm 1 for deciding
// C_{2k}-freeness with one-sided error ε on an n-vertex graph
// (Instructions 1–6 of Algorithm 1):
//
//	ε̂ = ln(3/ε)
//	p  = ε̂·2k²/n^{1/k}        (selection probability of S)
//	τ  = k·2^k·n·p            (global threshold, Θ(n^{1-1/k}))
//	K  = ε̂·(2k)^{2k}          (number of coloring repetitions)
//	light degree bound n^{1/k} (membership in U)
type Params struct {
	N   int     // number of vertices
	K   int     // half cycle length: the algorithm decides C_{2k}-freeness
	Eps float64 // one-sided error probability

	EpsHat     float64 // ln(3/ε)
	P          float64 // selection probability, capped at 1
	Tau        int     // global threshold τ
	Iterations int     // K, the repetition count actually used
	LightMax   int     // degree bound for U

	// FaithfulIterations is the paper's K = ε̂(2k)^{2k} before any override;
	// it is astronomically large for k ≥ 3 and constant in n, so experiments
	// override Iterations while reporting this value.
	FaithfulIterations float64
}

// MaxCycleLen is the longest target cycle a color-BFS searches for:
// colors are int8 values in [0, L), so L ≤ 127.
const MaxCycleLen = math.MaxInt8

// NewParams derives the paper's parameters.
func NewParams(n, k int, eps float64) (Params, error) {
	if k < 2 {
		return Params{}, fmt.Errorf("core: k = %d < 2 (C_{2k} detection needs k ≥ 2)", k)
	}
	if 2*k > MaxCycleLen {
		return Params{}, fmt.Errorf("core: k = %d: cycle length %d exceeds %d, the int8 color range", k, 2*k, MaxCycleLen)
	}
	if n < 2 {
		return Params{}, fmt.Errorf("core: n = %d too small", n)
	}
	if !(eps > 0 && eps < 1) { // NaN-safe
		return Params{}, fmt.Errorf("core: ε = %v outside (0,1)", eps)
	}
	epsHat := math.Log(3 / eps)
	nRoot := math.Pow(float64(n), 1/float64(k))
	p := epsHat * 2 * float64(k*k) / nRoot
	if p > 1 {
		p = 1
	}
	tau := float64(k) * math.Pow(2, float64(k)) * float64(n) * p
	faithfulK := epsHat * math.Pow(2*float64(k), 2*float64(k))
	iter := faithfulK
	// Keep the value representable; callers override Iterations anyway for
	// large k.
	if iter > math.MaxInt32 {
		iter = math.MaxInt32
	}
	return Params{
		N:                  n,
		K:                  k,
		Eps:                eps,
		EpsHat:             epsHat,
		P:                  p,
		Tau:                ceilSat(tau),
		Iterations:         int(math.Ceil(iter)),
		LightMax:           int(math.Floor(nRoot)),
		FaithfulIterations: faithfulK,
	}, nil
}

// ApplyP replaces the selection probability and rederives the threshold
// τ = k·2^k·n·p that depends on it.
func (p *Params) ApplyP(prob float64) {
	if prob > 1 {
		prob = 1
	}
	p.P = prob
	p.Tau = ceilSat(float64(p.K) * math.Pow(2, float64(p.K)) * float64(p.N) * prob)
	if p.Tau < 1 {
		p.Tau = 1
	}
}

// ceilSat is ⌈x⌉ saturated at math.MaxInt: τ = k·2^k·n·p passes 2^63
// from k ≈ 52 on, where a plain conversion wraps to a negative
// threshold.
func ceilSat(x float64) int {
	if x >= math.MaxInt {
		return math.MaxInt
	}
	return int(math.Ceil(x))
}

// BudgetRounds returns the a-priori round budget K·3·k·τ of Algorithm 1
// (three color-BFS calls of at most k·τ rounds per iteration), the
// O(log²(1/ε)·2^{3k}k^{2k+3}·n^{1-1/k}) quantity of Theorem 1.
func (p Params) BudgetRounds() float64 {
	return float64(p.Iterations) * 3 * float64(p.K) * float64(p.Tau)
}
