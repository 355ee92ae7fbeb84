// Package mech implements the basic local-differential-privacy mechanisms
// of Section 3.1 of the paper, together with their unbiased estimators
// (Section 4.1):
//
//   - RR: binary randomized response (Warner).
//   - PRR: parallel randomized response over a bit vector (BasicRAPPOR /
//     unary encoding), in both the vanilla e^{eps/2} form and the Wang et
//     al. optimized (OUE) form used by the paper's experiments.
//   - GRR: preferential sampling / generalized randomized response /
//     direct encoding over m categories.
//
// The package's tests compute the epsilon each mechanism provides from its
// probabilities, verifying the privacy claims of Facts 3.1 and 3.2.
package mech

import (
	"fmt"
	"math"

	"ldpmarginals/internal/rng"
)

// PFromEpsilon returns the keep probability p = e^eps / (1 + e^eps) that
// makes binary randomized response eps-LDP.
func PFromEpsilon(eps float64) float64 {
	return math.Exp(eps) / (1 + math.Exp(eps))
}

// SplitEpsilon returns the per-piece budget eps/m of the budget-splitting
// (BS) composition strategy for m pieces.
func SplitEpsilon(eps float64, m int) (float64, error) {
	if m <= 0 {
		return 0, fmt.Errorf("mech: budget split over %d pieces", m)
	}
	if eps <= 0 {
		return 0, fmt.Errorf("mech: epsilon must be positive, got %v", eps)
	}
	return eps / float64(m), nil
}

// RR is binary randomized response: report the true bit with probability
// P > 1/2, the opposite otherwise.
type RR struct {
	// P is the probability of reporting the truth.
	P float64
}

// NewRR returns the eps-LDP binary randomized response mechanism.
func NewRR(eps float64) (*RR, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("mech: epsilon must be positive, got %v", eps)
	}
	return &RR{P: PFromEpsilon(eps)}, nil
}

// PerturbBit reports b truthfully with probability P.
func (m *RR) PerturbBit(b bool, r *rng.RNG) bool {
	if r.Bernoulli(m.P) {
		return b
	}
	return !b
}

// PerturbSign applies randomized response to a +-1 value: the sign is
// kept with probability P and flipped otherwise.
func (m *RR) PerturbSign(s float64, r *rng.RNG) float64 {
	if r.Bernoulli(m.P) {
		return s
	}
	return -s
}

// UnbiasSign converts a single +-1 report into an unbiased estimate of
// the true sign: E[y/(2P-1)] = s.
func (m *RR) UnbiasSign(y float64) float64 { return y / (2*m.P - 1) }

// PRR is parallel randomized response over a bit vector: every position
// is perturbed independently. P1 is the probability of reporting 1 when
// the true bit is 1; P0 the probability of reporting 1 when it is 0.
type PRR struct {
	P1, P0 float64
}

// NewPRR returns a parallel randomized response mechanism that is eps-LDP
// on one-hot (sparse) input vectors. With optimized=false it uses the
// symmetric probabilities of Fact 3.2 (each bit gets eps/2-RR); with
// optimized=true it uses the Wang et al. asymmetric setting P1 = 1/2,
// P0 = 1/(e^eps + 1), which slightly improves variance at the same eps.
func NewPRR(eps float64, optimized bool) (*PRR, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("mech: epsilon must be positive, got %v", eps)
	}
	if optimized {
		return &PRR{P1: 0.5, P0: 1 / (math.Exp(eps) + 1)}, nil
	}
	p := PFromEpsilon(eps / 2)
	return &PRR{P1: p, P0: 1 - p}, nil
}

// PerturbBit reports a (possibly flipped) version of b.
func (m *PRR) PerturbBit(b bool, r *rng.RNG) bool {
	if b {
		return r.Bernoulli(m.P1)
	}
	return r.Bernoulli(m.P0)
}

// PerturbOneHot perturbs the one-hot vector of length size with signal
// position signal, returning the set of positions reported as 1 as a
// bitmap packed into uint64 words. size must be at most 1<<20 to bound
// the per-user work (the paper advises against InpRR beyond small d for
// exactly this reason).
func (m *PRR) PerturbOneHot(signal uint64, size int, r *rng.RNG) ([]uint64, error) {
	const maxSize = 1 << 20
	if size <= 0 || size > maxSize {
		return nil, fmt.Errorf("mech: one-hot size %d out of range (1..%d)", size, maxSize)
	}
	if signal >= uint64(size) {
		return nil, fmt.Errorf("mech: signal %d outside vector of size %d", signal, size)
	}
	words := (size + 63) / 64
	out := make([]uint64, words)
	for i := 0; i < size; i++ {
		if m.PerturbBit(uint64(i) == signal, r) {
			out[i/64] |= 1 << uint(i%64)
		}
	}
	return out, nil
}

// UnbiasFrequency converts the observed fraction of 1-reports at a
// position into an unbiased estimate of the true frequency of 1s there:
// E[F] = f*P1 + (1-f)*P0  =>  f = (F - P0) / (P1 - P0).
func (m *PRR) UnbiasFrequency(observed float64) float64 {
	return (observed - m.P0) / (m.P1 - m.P0)
}

// GRR is generalized randomized response over m categories (the paper's
// preferential sampling, PS): report the true category with probability
// Ps, otherwise one of the remaining m-1 uniformly.
type GRR struct {
	M  uint64  // number of categories
	Ps float64 // probability of reporting the true category
}

// NewGRR returns the eps-LDP generalized randomized response over m >= 2
// categories, with Ps = e^eps / (e^eps + m - 1) (Fact 3.1 rearranged).
func NewGRR(eps float64, m uint64) (*GRR, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("mech: epsilon must be positive, got %v", eps)
	}
	if m < 2 {
		return nil, fmt.Errorf("mech: GRR needs at least 2 categories, got %d", m)
	}
	e := math.Exp(eps)
	return &GRR{M: m, Ps: e / (e + float64(m) - 1)}, nil
}

// Perturb reports the true category with probability Ps and a uniformly
// random different category otherwise.
func (g *GRR) Perturb(truth uint64, r *rng.RNG) uint64 {
	if r.Bernoulli(g.Ps) {
		return truth
	}
	// Uniform over the other m-1 categories.
	v := r.Uint64n(g.M - 1)
	if v >= truth {
		v++
	}
	return v
}

// UnbiasFrequency converts the observed report fraction F_j of category j
// into an unbiased estimate of the true fraction f_j (Section 4.1):
// f_j = (D*F_j + Ps - 1) / (D*Ps + Ps - 1), with D = m-1.
func (g *GRR) UnbiasFrequency(observed float64) float64 {
	d := float64(g.M - 1)
	return (d*observed + g.Ps - 1) / (d*g.Ps + g.Ps - 1)
}
