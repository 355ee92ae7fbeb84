package core

import (
	"fmt"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/hadamard"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/mech"
	"ldpmarginals/internal/rng"
)

// inpRR is the InpRR protocol (Section 4.2): every user perturbs all 2^d
// positions of their one-hot input with parallel randomized response and
// sends the full noisy bitmap. Simple and accurate for small d, but the
// communication cost of 2^d bits per user makes it impractical beyond
// d of about 16, exactly as the paper observes. It is not served: its
// wire tag is retired and ldpserver refuses it, so it runs under ldpmarg
// and cmd/experiments (and Simulate) only.
type inpRR struct {
	cfg  Config
	prr  *mech.PRR
	size int // 2^d
}

// NewInpRR constructs the InpRR protocol. d is limited to
// MaxInputAttributes because the protocol materializes 2^d cells.
func NewInpRR(cfg Config) (Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.D > MaxInputAttributes {
		return nil, fmt.Errorf("core: InpRR with d=%d would materialize 2^%d cells per user (limit d=%d)",
			cfg.D, cfg.D, MaxInputAttributes)
	}
	prr, err := mech.NewPRR(cfg.Epsilon, cfg.OptimizedPRR)
	if err != nil {
		return nil, err
	}
	return &inpRR{cfg: cfg, prr: prr, size: 1 << uint(cfg.D)}, nil
}

func (p *inpRR) Name() string           { return "InpRR" }
func (p *inpRR) Config() Config         { return p.cfg }
func (p *inpRR) CommunicationBits() int { return p.size }

func (p *inpRR) NewClient() Client { return &inpRRClient{p: p} }

func (p *inpRR) NewAggregator() Aggregator {
	return &inpRRAgg{p: p, CounterBlock: NewCounterBlock("InpRR", stateKindInpRR, BitmapCounters, 0, p.size)}
}

type inpRRClient struct{ p *inpRR }

// Perturb applies PRR to the user's one-hot vector (Fact 3.2).
func (c *inpRRClient) Perturb(record uint64, r *rng.RNG) (Report, error) {
	if record >= uint64(c.p.size) {
		return Report{}, fmt.Errorf("core: record %d outside 2^%d domain", record, c.p.cfg.D)
	}
	bits, err := c.p.prr.PerturbOneHot(record, c.p.size, r)
	if err != nil {
		return Report{}, err
	}
	return Report{Bits: bits}, nil
}

// inpRRAgg counts, per cell of the one ungrouped plane, the reports
// whose bit for that cell was set.
type inpRRAgg struct {
	p *inpRR
	CounterBlock
}

func (a *inpRRAgg) Consume(rep Report) error {
	words := (a.p.size + 63) / 64
	if len(rep.Bits) != words {
		return fmt.Errorf("core: InpRR report has %d words, want %d", len(rep.Bits), words)
	}
	for i := 0; i < a.p.size; i++ {
		if rep.Bits[i/64]&(1<<uint(i%64)) != 0 {
			a.cells[i]++
		}
	}
	a.n++
	return nil
}

// ConsumeBatch incorporates reps in order; see Aggregator.
func (a *inpRRAgg) ConsumeBatch(reps []Report) error {
	for i := range reps {
		if err := a.Consume(reps[i]); err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	return nil
}

// SimulateBatch is the statistically exact fast path used by the runner:
// instead of generating a 2^d-bit report per user, it samples the
// aggregate per-cell 1-counts directly as binomials over the true per-cell
// populations. The aggregator's view has exactly the same distribution.
func (a *inpRRAgg) SimulateBatch(records []uint64, r *rng.RNG) error {
	hist := make([]int, a.p.size)
	for _, rec := range records {
		if rec >= uint64(a.p.size) {
			return fmt.Errorf("core: record %d outside 2^%d domain", rec, a.p.cfg.D)
		}
		hist[rec]++
	}
	n := len(records)
	for j := 0; j < a.p.size; j++ {
		trueOnes := hist[j]
		a.cells[j] += uint64(r.Binomial(trueOnes, a.p.prr.P1))
		a.cells[j] += uint64(r.Binomial(n-trueOnes, a.p.prr.P0))
	}
	a.n += n
	return nil
}

// Estimate unbiases every cell of the reconstructed full distribution and
// aggregates it through the marginal operator (Theorem 4.3's estimator).
// The 2^d-cell scan parallelizes across goroutines for large d (see
// scatterCells).
func (a *inpRRAgg) Estimate(beta uint64) (*marginal.Table, error) {
	if err := a.checkBeta(beta); err != nil {
		return nil, err
	}
	if a.n == 0 {
		return nil, fmt.Errorf("core: InpRR aggregator has no reports")
	}
	out, err := marginal.New(beta)
	if err != nil {
		return nil, err
	}
	inv := 1 / float64(a.n)
	scatterCells(out, beta, a.p.size, func(j int) float64 {
		return a.p.prr.UnbiasFrequency(float64(a.cells[j]) * inv)
	})
	return out, nil
}

func (a *inpRRAgg) checkBeta(beta uint64) error {
	return checkBetaWithin(beta, a.p.cfg)
}

// reconstructKWayLinear derives every k-way table from ONE full-domain
// Walsh-Hadamard transform of the per-cell 1-counts instead of a 2^d
// scan per table. The marginal operator is linear in the counters:
// with W = WHT(ones), the sum of ones over the cells of any marginal
// beta is the inverse transform of W's subcube alpha ⪯ beta, and the
// PRR unbiasing is affine, so
//
//	est_c = (S_c/n - 2^{d-k} * P0) / (P1 - P0),  S_c = sum of ones in c.
//
// All WHT intermediates are sums/differences of integers (exact in
// float64 far beyond the supported d), so S_c is exact; only the final
// affine step rounds differently from Estimate's per-cell summation,
// keeping the two within ~1e-12 TV. Cost: O(d 2^d) once, then O(k 2^k)
// per table.
func (a *inpRRAgg) reconstructKWayLinear(masks []uint64, tables []*marginal.Table, users []int) error {
	if a.n == 0 {
		return fmt.Errorf("core: InpRR aggregator has no reports")
	}
	w := hadamard.GetVec(a.p.size)
	defer hadamard.PutVec(w)
	for j, c := range a.cells {
		w[j] = float64(c)
	}
	if err := hadamard.WHT(w); err != nil {
		return err
	}
	invN := 1 / float64(a.n)
	p0, p1 := a.p.prr.P0, a.p.prr.P1
	scale := 1 / (p1 - p0)
	errs := make([]error, len(masks))
	parallelFor(len(masks), func(i int) {
		cells := tables[i].Cells
		for c := range cells {
			cells[c] = w[bitops.Expand(uint64(c), masks[i])]
		}
		if err := hadamard.InverseWHT(cells); err != nil {
			errs[i] = err
			return
		}
		group := float64(a.p.size / len(cells))
		for c := range cells {
			cells[c] = (cells[c]*invN - group*p0) * scale
		}
		users[i] = a.n
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkBetaWithin validates a queried marginal against the deployment
// configuration: within the attribute set and no larger than K.
func checkBetaWithin(beta uint64, cfg Config) error {
	if beta == 0 {
		return fmt.Errorf("core: empty marginal query")
	}
	if beta >= 1<<uint(cfg.D) {
		return fmt.Errorf("core: marginal %b outside %d attributes", beta, cfg.D)
	}
	if k := bitops.OnesCount(beta); k > cfg.K {
		return fmt.Errorf("core: marginal has %d attributes but the deployment supports k<=%d", k, cfg.K)
	}
	return nil
}
