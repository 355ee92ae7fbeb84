// The tail inequalities of Definition 4.1, the master theorem tail of
// Theorem 4.2 and a power-law fit: the instruments the tests use to check
// measured errors against the theory. No protocol calls them.

package bounds

import (
	"fmt"
	"math"
)

// BernsteinTail bounds P[|sum X_i|/N >= c] for independent zero-mean
// variables with common variance sigma2 and |X_i| <= m (Definition 4.1).
func BernsteinTail(n int, c, sigma2, m float64) (float64, error) {
	if n <= 0 || c <= 0 || sigma2 < 0 || m <= 0 {
		return 0, fmt.Errorf("bounds: invalid Bernstein parameters n=%d c=%v sigma2=%v m=%v", n, c, sigma2, m)
	}
	exponent := -float64(n) * c * c / (2*sigma2 + 2*c*m/3)
	return clampProb(2 * math.Exp(exponent)), nil
}

// HoeffdingTail bounds P[|sum X_i|/N >= c] for independent zero-mean
// variables with |X_i| <= m (Definition 4.1, identical bounds m_i = m).
func HoeffdingTail(n int, c, m float64) (float64, error) {
	if n <= 0 || c <= 0 || m <= 0 {
		return 0, fmt.Errorf("bounds: invalid Hoeffding parameters n=%d c=%v m=%v", n, c, m)
	}
	exponent := -float64(n) * c * c / (2 * m * m)
	return clampProb(2 * math.Exp(exponent)), nil
}

func clampProb(p float64) float64 {
	if p > 1 {
		return 1
	}
	return p
}

// MasterTail is Theorem 4.2: the tail probability of the sampled
// randomized-response estimator with sampling probability ps and
// response probability pr at deviation c.
//
// Note: the theorem's printed "simplified form" drops a factor in its
// own variance computation (the paper's equation (7) has
// 4 pr (1-pr) / (ps (2pr-1)^2), the statement carries only half of it
// through), making the printed constant slightly tighter than
// Bernstein's inequality supports; the empirical tail can exceed it.
// This implementation applies Bernstein with the paper's equation (7)
// variance and M = 2pr/(ps(2pr-1)) exactly; the asymptotics are those
// of the theorem.
func MasterTail(n int, c, ps, pr float64) (float64, error) {
	if n <= 0 || c <= 0 {
		return 0, fmt.Errorf("bounds: invalid master-theorem parameters n=%d c=%v", n, c)
	}
	if ps <= 0 || ps > 1 || pr <= 0.5 || pr >= 1 {
		return 0, fmt.Errorf("bounds: sampling/response probabilities out of range ps=%v pr=%v", ps, pr)
	}
	m := 2 * pr / (ps * (2*pr - 1))
	sigma2 := 4*pr*(1-pr)/(ps*(2*pr-1)*(2*pr-1)) + (1 - ps)
	return BernsteinTail(n, c, sigma2, m)
}

// FitPowerLaw returns the slope of log(y) against log(x) by least
// squares — used by tests to verify measured error scalings (e.g. slope
// -1/2 in N). xs and ys must be positive and of equal length >= 2.
func FitPowerLaw(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, fmt.Errorf("bounds: need >= 2 aligned points, got %d and %d", len(xs), len(ys))
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, fmt.Errorf("bounds: power-law fit needs positive data, got (%v, %v)", xs[i], ys[i])
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0, fmt.Errorf("bounds: degenerate x values")
	}
	return (n*sxy - sx*sy) / denom, nil
}
