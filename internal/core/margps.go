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
	counts := make([][]uint64, len(p.idx.masks))
	for i := range counts {
		counts[i] = make([]uint64, p.cells)
	}
	return &margPSAgg{p: p, counts: counts, users: make([]int, len(p.idx.masks))}
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

type margPSAgg struct {
	p      *margPS
	counts [][]uint64 // per marginal, per cell: report counts
	users  []int
	n      int
}

func (a *margPSAgg) N() int { return a.n }

func (a *margPSAgg) Consume(rep Report) error {
	pos, ok := a.p.idx.pos.lookup(rep.Beta)
	if !ok {
		return fmt.Errorf("core: MargPS report for unknown marginal %b", rep.Beta)
	}
	if rep.Index >= a.p.cells {
		return fmt.Errorf("core: MargPS report cell %d out of range", rep.Index)
	}
	a.counts[pos][rep.Index]++
	a.users[pos]++
	a.n++
	return nil
}

// ConsumeBatch incorporates reps in order; see Aggregator. Same shape
// as inpHTAgg.ConsumeBatch: dense-table hits with an in-range cell are
// counted in the loop, everything else goes through Consume.
func (a *margPSAgg) ConsumeBatch(reps []Report) error {
	dense, counts, users := a.p.idx.pos.dense, a.counts, a.users
	fast := 0
	for i := range reps {
		r := &reps[i]
		if r.Beta < uint64(len(dense)) && r.Index < a.p.cells {
			if p := dense[r.Beta]; p != 0 {
				counts[p-1][r.Index]++
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

func (a *margPSAgg) Merge(other Aggregator) error {
	o, ok := other.(*margPSAgg)
	if !ok {
		return fmt.Errorf("core: merging %T into MargPS aggregator", other)
	}
	for i := range a.counts {
		for c := range a.counts[i] {
			a.counts[i][c] += o.counts[i][c]
		}
		a.users[i] += o.users[i]
	}
	a.n += o.n
	return nil
}

// Unmerge subtracts a previously merged contribution — the exact
// integer inverse of Merge, used by delta snapshots.
func (a *margPSAgg) Unmerge(other Aggregator) error {
	o, ok := other.(*margPSAgg)
	if !ok {
		return fmt.Errorf("core: unmerging %T from MargPS aggregator", other)
	}
	// Validate before mutating: unmerging state that was never merged
	// would wrap the unsigned counters; reject it and leave the
	// receiver unchanged.
	if o.n > a.n {
		return fmt.Errorf("core: unmerging MargPS state with n=%d from aggregator holding n=%d", o.n, a.n)
	}
	for i := range a.counts {
		if o.users[i] > a.users[i] {
			return fmt.Errorf("core: unmerging MargPS state never merged here: marginal %d would be left with %d users", i, a.users[i]-o.users[i])
		}
		for c := range a.counts[i] {
			if o.counts[i][c] > a.counts[i][c] {
				return fmt.Errorf("core: unmerging MargPS state never merged here: marginal %d cell %d would underflow", i, c)
			}
		}
	}
	for i := range a.counts {
		for c := range a.counts[i] {
			a.counts[i][c] -= o.counts[i][c]
		}
		a.users[i] -= o.users[i]
	}
	a.n -= o.n
	return nil
}

// CopyStateFrom replaces the receiver's state with a deep copy of
// other's, reusing the receiver's buffers.
func (a *margPSAgg) CopyStateFrom(other Aggregator) error {
	o, ok := other.(*margPSAgg)
	if !ok {
		return fmt.Errorf("core: copying %T into MargPS aggregator", other)
	}
	for i := range a.counts {
		copy(a.counts[i], o.counts[i])
	}
	copy(a.users, o.users)
	a.n = o.n
	return nil
}

func (a *margPSAgg) kWay(pos int) (*marginal.Table, int, error) {
	t, err := marginal.New(a.p.idx.masks[pos])
	if err != nil {
		return nil, 0, err
	}
	users, err := a.kWayInto(pos, t)
	return t, users, err
}

// kWayInto is kWay writing into the caller's table (dst.Beta must be
// the mask at pos) — the allocation-free kernel behind arena rebuilds,
// with arithmetic identical to kWay.
func (a *margPSAgg) kWayInto(pos int, dst *marginal.Table) (int, error) {
	if a.users[pos] == 0 {
		uniform(dst.Cells)
		return 0, nil
	}
	inv := 1 / float64(a.users[pos])
	for c := uint64(0); c < a.p.cells; c++ {
		dst.Cells[c] = a.p.grr.UnbiasFrequency(float64(a.counts[pos][c]) * inv)
	}
	return a.users[pos], nil
}

// Estimate answers |beta| = k directly and |beta| < k by weighted
// averaging over the collected super-marginals.
func (a *margPSAgg) Estimate(beta uint64) (*marginal.Table, error) {
	if err := checkBetaWithin(beta, a.p.cfg); err != nil {
		return nil, err
	}
	if a.n == 0 {
		return nil, fmt.Errorf("core: MargPS aggregator has no reports")
	}
	return a.p.idx.estimateFromKWay(beta, a.kWay)
}
