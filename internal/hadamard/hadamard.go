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
	"runtime"
	"sync"

	"ldpmarginals/internal/bitops"
)

// Sign returns (-1)^{<j, alpha>}, the scaled Hadamard coefficient m_alpha
// of the one-hot record j. This is the single value a user computes in
// the InpHT and MargHT protocols (Algorithm 1, line 4).
func Sign(j, alpha uint64) float64 {
	return float64(bitops.InnerProductSign(j, alpha))
}

// parallelThreshold is the vector length from which WHT fans each
// butterfly stage out across goroutines. Below it (marginal-sized
// subcubes, 2^k cells) the goroutine overhead dwarfs the arithmetic;
// above it (full-domain transforms at d >= 13) the stages are long
// enough to saturate the cores.
const parallelThreshold = 1 << 13

// WHT performs the in-place unnormalized Walsh-Hadamard transform of v,
// whose length must be a power of two. Applying it twice multiplies by
// len(v). The scaled-coefficient vector of a distribution t over 2^d
// cells is exactly WHT(t): m_alpha = sum_eta t[eta] * (-1)^{<alpha,eta>}.
//
// Large transforms run each butterfly stage in parallel across
// goroutines. Every element is written by exactly one goroutine per
// stage and stages are barriers, so the result is bit-identical to the
// sequential transform regardless of GOMAXPROCS.
func WHT(v []float64) error {
	n := len(v)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("hadamard: length %d is not a power of two", n)
	}
	if n >= parallelThreshold {
		if workers := runtime.GOMAXPROCS(0); workers > 1 {
			whtParallel(v, workers)
			return nil
		}
	}
	whtSequential(v)
	return nil
}

func whtSequential(v []float64) {
	n := len(v)
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := v[j], v[j+h]
				v[j], v[j+h] = x+y, x-y
			}
		}
	}
}

// whtParallel runs the same butterfly network with each stage's n/2
// independent pairs partitioned across workers. Pair t of stage h is
// (j, j+h) with j = (t/h)*2h + t%h; the partition touches disjoint
// elements, and the WaitGroup barrier between stages orders the
// dependent reads.
func whtParallel(v []float64, workers int) {
	n := len(v)
	pairs := n / 2
	if workers > pairs {
		workers = pairs
	}
	per := (pairs + workers - 1) / workers
	var wg sync.WaitGroup
	for h := 1; h < n; h <<= 1 {
		for w := 0; w < workers; w++ {
			lo, hi := w*per, min((w+1)*per, pairs)
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi, h int) {
				defer wg.Done()
				for t := lo; t < hi; t++ {
					j := (t/h)*(h<<1) + t%h
					x, y := v[j], v[j+h]
					v[j], v[j+h] = x+y, x-y
				}
			}(lo, hi, h)
		}
		wg.Wait()
	}
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
	// ScaledCoefficient returns the estimate of m_alpha. alpha = 0 must
	// return exactly 1 (the 0th coefficient of any distribution).
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

// ReconstructMarginal evaluates the k-way marginal identified by beta from
// scaled Hadamard coefficients, returning a dense vector of 2^k cell
// values indexed compactly (cell c corresponds to full-domain index
// bitops.Expand(c, beta)). Only the 2^k coefficients alpha ⪯ beta are
// consulted, per Lemma 3.7.
func ReconstructMarginal(src CoefficientSource, beta uint64) []float64 {
	cells := make([]float64, 1<<uint(bitops.OnesCount(beta)))
	ReconstructMarginalInto(cells, src, beta)
	return cells
}

// ReconstructMarginalInto is ReconstructMarginal writing into the
// caller's cell buffer (len 2^|beta|) — the allocation-free kernel the
// epoch-refresh arenas reuse. The arithmetic is identical to
// ReconstructMarginal: gather the subcube's coefficients, then one
// inverse transform produces all 2^k cells in O(k 2^k).
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
