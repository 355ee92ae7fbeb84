// Package bounds implements the paper's theoretical accuracy machinery
// as executable code: the per-protocol total-variation error bounds of
// Theorems 4.3-4.5 and Lemma 4.6 (up to their suppressed logarithmic
// factors), which the view publishes with every epoch. The tail
// inequalities of Definition 4.1 and the master theorem tail of Theorem
// 4.2 live in the package's tests, which use them to confirm empirically
// measured errors scale as the theory predicts — the paper's goal (1)
// for its own evaluation.
package bounds

import (
	"fmt"
	"math"

	"ldpmarginals/internal/bitops"
)

// Params carries the deployment parameters the error bounds depend on.
type Params struct {
	N       int
	D       int
	K       int
	Epsilon float64
}

func (p Params) validate() error {
	if p.N <= 0 || p.D < 1 || p.K < 1 || p.K > p.D || p.Epsilon <= 0 {
		return fmt.Errorf("bounds: invalid parameters %+v", p)
	}
	return nil
}

// common returns the factor 2^{k/2} / (eps sqrt(N)) shared by every
// bound in Table 2.
func (p Params) common() float64 {
	return math.Exp2(float64(p.K)/2) / (p.Epsilon * math.Sqrt(float64(p.N)))
}

// InpRR is Theorem 4.3's bound (up to logarithmic factors):
// 2^{(d+k)/2} / (eps sqrt(N)).
func InpRR(p Params) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	return math.Exp2(float64(p.D)/2) * p.common(), nil
}

// InpPS is Theorem 4.4's bound: 2^{k/2} 2^d / (eps sqrt(N)).
func InpPS(p Params) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	return math.Exp2(float64(p.D)) * p.common(), nil
}

// InpHT is Theorem 4.5's bound: 2^{k/2} sqrt(|T|) / (eps sqrt(N)) with
// |T| = sum_{l<=k} C(d,l) = O(d^k).
func InpHT(p Params) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	t := float64(bitops.CountAtMostK(p.D, p.K))
	return math.Sqrt(t) * p.common(), nil
}

// MargRR is Lemma 4.6's MargRR bound: 2^k d^{k/2} / (eps sqrt(N)).
func MargRR(p Params) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	return math.Exp2(float64(p.K)/2) * math.Pow(float64(p.D), float64(p.K)/2) * p.common(), nil
}

// MargPS is Lemma 4.6's bound for MargPS and MargHT:
// 2^{3k/2} d^{k/2} / (eps sqrt(N)).
func MargPS(p Params) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	return math.Exp2(float64(p.K)) * math.Pow(float64(p.D), float64(p.K)/2) * p.common(), nil
}

// MargHT shares MargPS's asymptotic bound (Lemma 4.6).
func MargHT(p Params) (float64, error) { return MargPS(p) }

// ForProtocol dispatches by the paper's protocol name.
func ForProtocol(name string, p Params) (float64, error) {
	switch name {
	case "InpRR":
		return InpRR(p)
	case "InpPS":
		return InpPS(p)
	case "InpHT":
		return InpHT(p)
	case "MargRR":
		return MargRR(p)
	case "MargPS":
		return MargPS(p)
	case "MargHT":
		return MargHT(p)
	default:
		return 0, fmt.Errorf("bounds: no bound for protocol %q", name)
	}
}
