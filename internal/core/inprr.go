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

// Estimate sums the 1-counts of the domain cells under each cell of
// beta and unbiases the sums with unbiasTable: the same arithmetic as a
// table KWayTablesInto serves (Theorem 4.3's estimator).
func (a *inpRRAgg) Estimate(beta uint64) (*marginal.Table, error) {
	return a.inputEstimate(a.p.cfg, beta, a.unbiasTable)
}

// KWayTablesInto sums every table's 1-counts through one full-domain
// transform (domainKWayTables) and unbiases them with unbiasTable.
func (a *inpRRAgg) KWayTablesInto(k *KWayArena) error {
	return a.domainKWayTables(k, a.unbiasTable)
}

// unbiasTable rewrites the 1-count sums of one marginal table in place
// as unbiased frequencies: with S_c the sum of ones in cell c, n reports
// and 2^{d-|beta|} domain cells per table cell,
//
//	est_c = (S_c/n - 2^{d-|beta|} * P0) / (P1 - P0).
func (a *inpRRAgg) unbiasTable(cells []float64) {
	invN := 1 / float64(a.n)
	p0, p1 := a.p.prr.P0, a.p.prr.P1
	scale := 1 / (p1 - p0)
	group := float64(a.p.size / len(cells))
	for c := range cells {
		cells[c] = (cells[c]*invN - group*p0) * scale
	}
}

// inputEstimate is Estimate of the input-view protocols InpRR and InpPS:
// the integer counters of the 2^d cells summed into the cells of beta,
// which are exact in float64 as the transform's are, then the
// protocol's table unbias, so at |beta| = k it equals the served table
// bit for bit.
func (b *CounterBlock) inputEstimate(cfg Config, beta uint64, unbias func(cells []float64)) (*marginal.Table, error) {
	if err := checkBetaWithin(beta, cfg); err != nil {
		return nil, err
	}
	if b.n == 0 {
		return nil, fmt.Errorf("core: %s aggregator has no reports", b.name)
	}
	out, err := marginal.New(beta)
	if err != nil {
		return nil, err
	}
	// Compress distributes over disjoint bits: a cell's position is its
	// high part's, found once per 256 cells, OR its low byte's, a table.
	var low [256]uint64
	for l := range low {
		low[l] = bitops.Compress(uint64(l), beta)
	}
	for hi := 0; hi < len(b.cells); hi += len(low) {
		base := bitops.Compress(uint64(hi), beta)
		for l, c := range b.cells[hi:min(hi+len(low), len(b.cells))] {
			out.Cells[base|low[l]] += float64(c)
		}
	}
	unbias(out.Cells)
	return out, nil
}

// domainKWayTables is KWayTablesInto of InpRR and InpPS: the 2^d
// per-cell counters as one vector through KWayArena.ReconstructDomain,
// then the protocol's affine unbiasing per table. Every transform
// intermediate is a sum of integers, exact in float64 far beyond the
// supported d, so the cell sums are exact and equal inputEstimate's.
func (b *CounterBlock) domainKWayTables(a *KWayArena, unbias func(cells []float64)) error {
	if b.n == 0 {
		return fmt.Errorf("core: %s aggregator has no reports", b.name)
	}
	w := hadamard.GetVec(len(b.cells))
	defer hadamard.PutVec(w)
	for j, c := range b.cells {
		w[j] = float64(c)
	}
	return a.ReconstructDomain(w, b.n, unbias)
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
