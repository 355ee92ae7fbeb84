package core

import (
	"fmt"

	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/mech"
	"ldpmarginals/internal/rng"
)

// inpPS is the InpPS protocol (Section 4.2): each user releases a single
// (noisy) cell index of their one-hot input through preferential sampling
// (generalized randomized response over all 2^d cells). Communication is
// only d bits, but accuracy degrades with 2^d — for larger d the
// probability of reporting the true index becomes so small that reports
// are nearly uniform, matching Theorem 4.4's bound.
type inpPS struct {
	cfg  Config
	grr  *mech.GRR
	size uint64
}

// NewInpPS constructs the InpPS protocol. d is limited to
// MaxInputAttributes because the aggregator materializes 2^d counters.
func NewInpPS(cfg Config) (Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.D > MaxInputAttributes {
		return nil, fmt.Errorf("core: InpPS with d=%d would materialize 2^%d cells (limit d=%d)",
			cfg.D, cfg.D, MaxInputAttributes)
	}
	grr, err := mech.NewGRR(cfg.Epsilon, 1<<uint(cfg.D))
	if err != nil {
		return nil, err
	}
	return &inpPS{cfg: cfg, grr: grr, size: 1 << uint(cfg.D)}, nil
}

func (p *inpPS) Name() string           { return "InpPS" }
func (p *inpPS) Config() Config         { return p.cfg }
func (p *inpPS) CommunicationBits() int { return p.cfg.D }

func (p *inpPS) NewClient() Client { return &inpPSClient{p: p} }

func (p *inpPS) NewAggregator() Aggregator {
	return &inpPSAgg{p: p, CounterBlock: NewCounterBlock("InpPS", stateKindInpPS, SamplingCounters, 0, int(p.size))}
}

type inpPSClient struct{ p *inpPS }

// Perturb reports the true cell with probability p_s and a uniformly
// random other cell otherwise (Fact 3.1).
func (c *inpPSClient) Perturb(record uint64, r *rng.RNG) (Report, error) {
	if record >= c.p.size {
		return Report{}, fmt.Errorf("core: record %d outside 2^%d domain", record, c.p.cfg.D)
	}
	return Report{Index: c.p.grr.Perturb(record, r)}, nil
}

// inpPSAgg counts, per cell of the one ungrouped plane, the reports
// naming that cell.
type inpPSAgg struct {
	p *inpPS
	CounterBlock
}

func (a *inpPSAgg) Consume(rep Report) error {
	if rep.Index >= a.p.size {
		return fmt.Errorf("core: InpPS report index %d out of range", rep.Index)
	}
	a.cells[rep.Index]++
	a.n++
	return nil
}

// ConsumeBatch incorporates reps in order; see Aggregator. One bounds
// check and one increment per report; the first report that fails the
// check goes to Consume for its error, and n moves once.
func (a *inpPSAgg) ConsumeBatch(reps []Report) error {
	counts := a.cells
	for i := range reps {
		idx := reps[i].Index
		if idx >= uint64(len(counts)) {
			a.n += i
			return &BatchError{Index: i, Err: a.Consume(reps[i])}
		}
		counts[idx]++
	}
	a.n += len(reps)
	return nil
}

// KWayTablesInto sums every table's report counts through one
// full-domain transform (domainKWayTables) and unbiases them with
// unbiasTable.
func (a *inpPSAgg) KWayTablesInto(k *KWayArena) error {
	return a.domainKWayTables(k, a.unbiasTable)
}

// Estimate sums the report counts of the domain cells under each cell
// of beta and unbiases the sums with unbiasTable: the same arithmetic
// as a table KWayTablesInto serves (Theorem 4.4's estimator, Section
// 4.1).
func (a *inpPSAgg) Estimate(beta uint64) (*marginal.Table, error) {
	return a.inputEstimate(a.p.cfg, beta, a.unbiasTable)
}

// unbiasTable rewrites the report-count sums of one marginal table in
// place as unbiased frequencies: the GRR unbiasing, affine with D = m-1,
// over n reports and 2^{d-|beta|} domain cells per table cell,
//
//	est_c = (D*S_c/n + 2^{d-|beta|}*(Ps-1)) / (D*Ps + Ps - 1).
func (a *inpPSAgg) unbiasTable(cells []float64) {
	invN := 1 / float64(a.n)
	dd := float64(a.p.grr.M - 1)
	ps := a.p.grr.Ps
	denom := dd*ps + ps - 1
	group := float64(int(a.p.size) / len(cells))
	for c := range cells {
		cells[c] = (dd*cells[c]*invN + group*(ps-1)) / denom
	}
}
