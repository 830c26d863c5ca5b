package baseline

import (
	"fmt"
	"math"
)

// EdenExponent returns the round-complexity exponent of Eden et al.
// [DISC'19] for C_{2k}-freeness: 1 - 2/(k²-2k+4) for even k ≥ 4 and
// 1 - 2/(k²-k+2) for odd k ≥ 3 (Table 1 rows [16]).
func EdenExponent(k int) (float64, error) {
	switch {
	case k >= 4 && k%2 == 0:
		return 1 - 2/float64(k*k-2*k+4), nil
	case k >= 3 && k%2 == 1:
		return 1 - 2/float64(k*k-k+2), nil
	default:
		return 0, fmt.Errorf("baseline: Eden et al. bound defined for k ≥ 3, got %d", k)
	}
}

// EdenBudgetRounds is the analytic round budget Õ(n^{EdenExponent}) with
// unit leading constant and a single log n factor for the Õ.
func EdenBudgetRounds(n, k int) (float64, error) {
	exp, err := EdenExponent(k)
	if err != nil {
		return 0, err
	}
	return math.Pow(float64(n), exp) * math.Log(float64(n)+2), nil
}

// VanApeldoornDeVosExponent is the quantum F_{2k} exponent of [PODC'22]:
// 1/2 - 1/(4k+2) (Table 1 row [33]); the paper improves it to 1/2 - 1/2k.
func VanApeldoornDeVosExponent(k int) float64 {
	return 0.5 - 1/float64(4*k+2)
}

// ThisPaperClassicalExponent is 1 - 1/k (Theorem 1).
func ThisPaperClassicalExponent(k int) float64 { return 1 - 1/float64(k) }

// ThisPaperQuantumExponent is 1/2 - 1/2k (Theorem 2).
func ThisPaperQuantumExponent(k int) float64 { return 0.5 - 1/float64(2*k) }
