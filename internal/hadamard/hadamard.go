// Package hadamard implements the discrete Fourier transform over the
// Boolean hypercube (the Walsh-Hadamard transform) and the marginal
// reconstruction identity of Barak et al. used by the paper's
// Hadamard-based protocols (Lemma 3.7 / equation 4).
//
// Convention. The paper's transform is theta = phi * t with
// phi_{i,j} = 2^{-d/2} * (-1)^{<i,j>}. Individual user inputs are one-hot,
// so each coefficient theta_alpha of a record j is +-2^{-d/2}. To keep all
// arithmetic independent of 2^{d/2} (which overflows quickly), this
// package works throughout with *scaled* coefficients
//
//	m_alpha = 2^{d/2} * theta_alpha = E_j[ (-1)^{<j, alpha>} ] in [-1, 1].
//
// With that scaling, the marginal identity collapses to an inverse
// transform over the k-dimensional subcube of beta:
//
//	C_beta[gamma] = 2^{-k} * sum_{alpha ⪯ beta} m_alpha * (-1)^{<alpha, gamma>}.
package hadamard

import (
	"fmt"

	"ldpmarginals/internal/bitops"
)

// Sign returns (-1)^{<j, alpha>}, the scaled Hadamard coefficient m_alpha
// of the one-hot record j. This is the single value a user computes in
// the InpHT and MargHT protocols (Algorithm 1, line 4).
func Sign(j, alpha uint64) float64 {
	return float64(bitops.InnerProductSign(j, alpha))
}

// WHT performs the in-place unnormalized Walsh-Hadamard transform of v,
// whose length must be a power of two. Applying it twice multiplies by
// len(v). The scaled-coefficient vector of a distribution t over 2^d
// cells is exactly WHT(t): m_alpha = sum_eta t[eta] * (-1)^{<alpha,eta>}.
// It runs the butterfly network in place on the calling goroutine, one
// stage after another.
func WHT(v []float64) error {
	n := len(v)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("hadamard: length %d is not a power of two", n)
	}
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := v[j], v[j+h]
				v[j], v[j+h] = x+y, x-y
			}
		}
	}
	return nil
}

// InverseWHT performs the in-place inverse of WHT (WHT followed by
// division by len(v)).
func InverseWHT(v []float64) error {
	if err := WHT(v); err != nil {
		return err
	}
	inv := 1 / float64(len(v))
	for i := range v {
		v[i] *= inv
	}
	return nil
}

// CoefficientSource yields the scaled coefficient estimate m_alpha for a
// coefficient index alpha. Implementations may return estimates (from an
// LDP aggregator) or exact values (from a reference transform).
type CoefficientSource interface {
	// ScaledCoefficient returns the estimate of m_alpha. For a
	// distribution alpha = 0 must return exactly 1 (its 0th
	// coefficient); a source over an unnormalized vector returns its
	// total mass, and reconstruction then yields cell sums.
	ScaledCoefficient(alpha uint64) float64
}

// MapSource is a CoefficientSource backed by a map, with the alpha = 0
// convention built in.
type MapSource map[uint64]float64

// ScaledCoefficient implements CoefficientSource. Missing coefficients
// estimate to 0 (the unbiased prior for an unobserved coefficient).
func (m MapSource) ScaledCoefficient(alpha uint64) float64 {
	if alpha == 0 {
		return 1
	}
	return m[alpha]
}

// ReconstructMarginalInto evaluates the k-way marginal identified by
// beta from scaled Hadamard coefficients into cells, a dense vector of
// 2^k cell values indexed compactly (cell c corresponds to full-domain
// index bitops.Expand(c, beta)). Only the 2^k coefficients alpha ⪯ beta
// are consulted, per Lemma 3.7: gather them, then one inverse transform
// produces all 2^k cells in O(k 2^k). It allocates nothing, and it is
// the one subcube kernel behind every Fourier protocol's tables.
func ReconstructMarginalInto(cells []float64, src CoefficientSource, beta uint64) {
	size := 1 << uint(bitops.OnesCount(beta))
	if len(cells) != size {
		panic("hadamard: cell buffer does not match |beta|")
	}
	for c := 0; c < size; c++ {
		cells[c] = src.ScaledCoefficient(bitops.Expand(uint64(c), beta))
	}
	// InverseWHT cannot fail: size is a power of two by construction.
	if err := InverseWHT(cells); err != nil {
		panic("hadamard: impossible: " + err.Error())
	}
}

// CoefficientSet returns the indices T of the scaled coefficients that a
// k-way-marginal protocol must collect: all alpha with 1 <= |alpha| <= k
// (the alpha = 0 coefficient is always known to be 1). The order is by
// popcount then numeric, matching bitops.MasksWithAtMostK.
func CoefficientSet(d, k int) []uint64 {
	return bitops.MasksWithAtMostK(d, 1, k)
}
