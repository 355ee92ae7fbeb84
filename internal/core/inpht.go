package core

import (
	"fmt"

	"ldpmarginals/internal/hadamard"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/mech"
	"ldpmarginals/internal/rng"
)

// inpHT is the InpHT protocol (Section 4.2, Algorithms 1 and 2) — the
// paper's overall winner. Each user samples one coefficient index from
// the set T of Hadamard coefficients sufficient for all k-way marginals
// (|alpha| between 1 and k, Lemma 3.7), evaluates the scaled coefficient
// of their one-hot input ((-1)^{<j, alpha>}), and releases it through
// binary randomized response. Communication is d+1 bits and, unlike the
// marginal-view protocols, every report informs many marginals at once.
type inpHT struct {
	cfg    Config
	rr     *mech.RR
	coeffs []uint64 // T, the collected coefficient masks
	pos    maskPos  // coefficient mask -> position in coeffs
}

// NewInpHT constructs the InpHT protocol. Any d up to
// bitops.MaxAttributes is supported: the aggregator state is |T| = O(d^k)
// counters, never 2^d.
func NewInpHT(cfg Config) (Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rr, err := mech.NewRR(cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	coeffs := hadamard.CoefficientSet(cfg.D, cfg.K)
	return &inpHT{cfg: cfg, rr: rr, coeffs: coeffs, pos: newMaskPos(cfg.D, coeffs)}, nil
}

func (p *inpHT) Name() string   { return "InpHT" }
func (p *inpHT) Config() Config { return p.cfg }

// CommunicationBits is d bits for the coefficient index plus 1 bit for
// the randomized-response output (Table 2).
func (p *inpHT) CommunicationBits() int { return p.cfg.D + 1 }

func (p *inpHT) NewClient() Client { return &inpHTClient{p: p} }

func (p *inpHT) NewAggregator() Aggregator {
	return &inpHTAgg{p: p, CounterBlock: NewCounterBlock("InpHT", stateKindInpHT, SignCounters, 0, len(p.coeffs))}
}

type inpHTClient struct{ p *inpHT }

// Perturb implements Algorithm 1: sample a coefficient uniformly from T,
// evaluate its sign on the input, and flip it via eps-RR.
func (c *inpHTClient) Perturb(record uint64, r *rng.RNG) (Report, error) {
	if record >= 1<<uint(c.p.cfg.D) {
		return Report{}, fmt.Errorf("core: record %d outside 2^%d domain", record, c.p.cfg.D)
	}
	alpha := c.p.coeffs[r.Intn(len(c.p.coeffs))]
	sign := c.p.rr.PerturbSign(hadamard.Sign(record, alpha), r)
	return Report{Index: alpha, Sign: int8(sign)}, nil
}

// inpHTAgg keeps, per coefficient of T on the one ungrouped pair of
// planes, the sum of reported signs and the report count (N_j in
// Algorithm 2).
type inpHTAgg struct {
	p *inpHT
	CounterBlock
	// normalizeByExpected switches the estimator denominator from the
	// realized per-coefficient count N_j (Algorithm 2) to the expected
	// count N*p_s = N/|T|. Exposed as an ablation; Algorithm 2's choice
	// is the default. It configures the estimator and is not state: no
	// block operation carries it from one aggregator to another.
	normalizeByExpected bool
}

// SetNormalizeByExpected toggles the ablation estimator that divides by
// the expected per-coefficient sample count N/|T| instead of the realized
// count N_j. Reachable through the Aggregator interface via assertion to
// interface{ SetNormalizeByExpected(bool) }.
func (a *inpHTAgg) SetNormalizeByExpected(v bool) { a.normalizeByExpected = v }

func (a *inpHTAgg) Consume(rep Report) error {
	i, ok := a.p.pos.lookup(rep.Index)
	if !ok {
		return fmt.Errorf("core: InpHT report for coefficient %b outside T", rep.Index)
	}
	if rep.Sign != 1 && rep.Sign != -1 {
		return fmt.Errorf("core: InpHT report sign %d is not +-1", rep.Sign)
	}
	a.AddSign(0, i, rep.Sign)
	return nil
}

// ConsumeBatch incorporates reps in order; see Aggregator. A report
// whose coefficient the dense position table resolves and whose sign is
// +-1 is counted in the loop; any other — invalid, or valid at a d too
// large for the table — goes through Consume, which counts or rejects
// it. n moves once for the reports counted here.
func (a *inpHTAgg) ConsumeBatch(reps []Report) error {
	dense, sums, counts := a.p.pos.dense, a.sums, a.counts
	fast := 0
	for i := range reps {
		r := &reps[i]
		if r.Index < uint64(len(dense)) && (r.Sign == 1 || r.Sign == -1) {
			if p := dense[r.Index]; p != 0 {
				sums[p-1] += int64(r.Sign)
				counts[p-1]++
				fast++
				continue
			}
		}
		if err := a.Consume(*r); err != nil {
			a.n += fast
			return &BatchError{Index: i, Err: err}
		}
	}
	a.n += fast
	return nil
}

// ScaledCoefficient returns the unbiased estimate of m_alpha, normalizing
// by the realized per-coefficient report count as in Algorithm 2 (and 0
// when the coefficient was never sampled). It implements
// hadamard.CoefficientSource so reconstruction can read it directly.
func (a *inpHTAgg) ScaledCoefficient(alpha uint64) float64 {
	if alpha == 0 {
		return 1
	}
	i, ok := a.p.pos.lookup(alpha)
	if !ok || a.counts[i] == 0 {
		return 0
	}
	denom := float64(a.counts[i])
	if a.normalizeByExpected {
		denom = float64(a.n) / float64(len(a.p.coeffs))
		if denom == 0 {
			return 0
		}
	}
	return a.p.rr.UnbiasSign(float64(a.sums[i]) / denom)
}

// Estimate reconstructs the marginal over beta from the 2^|beta|
// coefficients alpha ⪯ beta (Lemma 3.7).
func (a *inpHTAgg) Estimate(beta uint64) (*marginal.Table, error) {
	if err := checkBetaWithin(beta, a.p.cfg); err != nil {
		return nil, err
	}
	if a.n == 0 {
		return nil, fmt.Errorf("core: InpHT aggregator has no reports")
	}
	cells := hadamard.ReconstructMarginal(a, beta)
	return marginal.FromCells(beta, cells)
}

// estimateInto is Estimate writing into the caller's table — the
// allocation-free kernel behind arena rebuilds. Identical arithmetic
// (gather the subcube's coefficients, one inverse transform), so arena
// reconstructions are bit-identical to Estimate's.
func (a *inpHTAgg) estimateInto(dst *marginal.Table) error {
	if err := checkBetaWithin(dst.Beta, a.p.cfg); err != nil {
		return err
	}
	if a.n == 0 {
		return fmt.Errorf("core: InpHT aggregator has no reports")
	}
	hadamard.ReconstructMarginalInto(dst.Cells, a, dst.Beta)
	return nil
}
