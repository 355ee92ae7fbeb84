package core

import (
	"fmt"

	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/mech"
	"ldpmarginals/internal/rng"
)

// margPS is the MargPS protocol (Section 4.3): each user samples one of
// the C(d,k) k-way marginals uniformly and releases the (noisy) index of
// the single occupied cell of their marginal through preferential
// sampling over the 2^k cells. Communication is d + k bits.
type margPS struct {
	cfg   Config
	grr   *mech.GRR
	idx   *margIndex
	cells uint64 // 2^k
}

// NewMargPS constructs the MargPS protocol.
func NewMargPS(cfg Config) (Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.K > 20 {
		return nil, fmt.Errorf("core: MargPS with k=%d would need 2^%d categories", cfg.K, cfg.K)
	}
	grr, err := mech.NewGRR(cfg.Epsilon, 1<<uint(cfg.K))
	if err != nil {
		return nil, err
	}
	return &margPS{cfg: cfg, grr: grr, idx: newMargIndex(cfg.D, cfg.K), cells: 1 << uint(cfg.K)}, nil
}

func (p *margPS) Name() string   { return "MargPS" }
func (p *margPS) Config() Config { return p.cfg }

// CommunicationBits is d bits identifying the sampled marginal plus k
// bits for the reported cell (Table 2).
func (p *margPS) CommunicationBits() int { return p.cfg.D + p.cfg.K }

func (p *margPS) NewClient() Client { return &margPSClient{p: p} }

func (p *margPS) NewAggregator() Aggregator {
	return &margPSAgg{p: p, CounterBlock: NewCounterBlock("MargPS", stateKindMargPS, SamplingCounters, len(p.idx.masks), int(p.cells))}
}

type margPSClient struct{ p *margPS }

// Perturb samples a marginal and reports a GRR-perturbed cell index.
func (c *margPSClient) Perturb(record uint64, r *rng.RNG) (Report, error) {
	if record >= 1<<uint(c.p.cfg.D) {
		return Report{}, fmt.Errorf("core: record %d outside 2^%d domain", record, c.p.cfg.D)
	}
	beta := c.p.idx.masks[r.Intn(len(c.p.idx.masks))]
	cell := marginal.CellOfRecord(record, beta)
	return Report{Beta: beta, Index: c.p.grr.Perturb(cell, r)}, nil
}

// margPSAgg has one group per marginal of C: its users are the reports
// that sampled it, its cells count those naming the cell.
type margPSAgg struct {
	p *margPS
	CounterBlock
}

func (a *margPSAgg) Consume(rep Report) error {
	pos, ok := a.p.idx.pos.lookup(rep.Beta)
	if !ok {
		return fmt.Errorf("core: MargPS report for unknown marginal %b", rep.Beta)
	}
	if rep.Index >= a.p.cells {
		return fmt.Errorf("core: MargPS report cell %d out of range", rep.Index)
	}
	a.cells[uint64(pos)*a.p.cells+rep.Index]++
	a.users[pos]++
	a.n++
	return nil
}

// ConsumeBatch incorporates reps in order; see Aggregator. Same shape
// as inpHTAgg.ConsumeBatch: dense-table hits with an in-range cell are
// counted in the loop, everything else goes through Consume.
func (a *margPSAgg) ConsumeBatch(reps []Report) error {
	dense, counts, users, cells := a.p.idx.pos.dense, a.cells, a.users, a.p.cells
	fast := 0
	for i := range reps {
		r := &reps[i]
		if r.Beta < uint64(len(dense)) && r.Index < cells {
			if p := dense[r.Beta]; p != 0 {
				counts[uint64(p-1)*cells+r.Index]++
				users[p-1]++
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

// kWayInto unbiases the GRR counts of the marginal at position pos into
// dst (dst.Beta must be the mask at pos) using its realized user count,
// and returns that count.
func (a *margPSAgg) kWayInto(pos int, dst *marginal.Table) (int, error) {
	if a.users[pos] == 0 {
		uniform(dst.Cells)
		return 0, nil
	}
	inv := 1 / float64(a.users[pos])
	lo, hi := a.span(pos)
	for c, count := range a.cells[lo:hi] {
		dst.Cells[c] = a.p.grr.UnbiasFrequency(float64(count) * inv)
	}
	return a.users[pos], nil
}

// Estimate answers |beta| = k directly and |beta| < k by weighted
// averaging over the collected super-marginals.
func (a *margPSAgg) Estimate(beta uint64) (*marginal.Table, error) {
	return a.p.idx.estimate("MargPS", a.p.cfg, a.n, beta, a.kWayInto)
}

// KWayTablesInto reconstructs every table of the collection; see
// margIndex.kWayTables.
func (a *margPSAgg) KWayTablesInto(k *KWayArena) error { return a.p.idx.kWayTables(k, a.kWayInto) }
