package core

import (
	"fmt"

	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/mech"
	"ldpmarginals/internal/rng"
)

// margRR is the MargRR protocol (Section 4.3): each user samples one of
// the C(d,k) k-way marginals uniformly, materializes their (one-hot)
// 2^k-cell marginal, perturbs every cell with parallel randomized
// response, and sends the noisy table together with the marginal's
// identity.
type margRR struct {
	cfg   Config
	prr   *mech.PRR
	idx   *margIndex
	cells int // 2^k
}

// NewMargRR constructs the MargRR protocol. K is limited so that the
// 2^K-cell per-user marginal stays practical (the paper itself notes the
// method is hard to justify for large k).
func NewMargRR(cfg Config) (Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.K > 16 {
		return nil, fmt.Errorf("core: MargRR with k=%d would perturb 2^%d cells per user", cfg.K, cfg.K)
	}
	prr, err := mech.NewPRR(cfg.Epsilon, cfg.OptimizedPRR)
	if err != nil {
		return nil, err
	}
	return &margRR{cfg: cfg, prr: prr, idx: newMargIndex(cfg.D, cfg.K), cells: 1 << uint(cfg.K)}, nil
}

func (p *margRR) Name() string   { return "MargRR" }
func (p *margRR) Config() Config { return p.cfg }

// CommunicationBits is d bits identifying the sampled marginal plus 2^k
// bits of perturbed cells (Table 2).
func (p *margRR) CommunicationBits() int { return p.cfg.D + p.cells }

func (p *margRR) NewClient() Client { return &margRRClient{p: p} }

func (p *margRR) NewAggregator() Aggregator {
	return &margRRAgg{p: p, CounterBlock: NewCounterBlock("MargRR", stateKindMargRR, BitmapCounters, len(p.idx.masks), p.cells)}
}

type margRRClient struct{ p *margRR }

// Perturb samples a marginal and applies PRR to its one-hot cell vector.
func (c *margRRClient) Perturb(record uint64, r *rng.RNG) (Report, error) {
	if record >= 1<<uint(c.p.cfg.D) {
		return Report{}, fmt.Errorf("core: record %d outside 2^%d domain", record, c.p.cfg.D)
	}
	beta := c.p.idx.masks[r.Intn(len(c.p.idx.masks))]
	signal := marginal.CellOfRecord(record, beta)
	bits, err := c.p.prr.PerturbOneHot(signal, c.p.cells, r)
	if err != nil {
		return Report{}, err
	}
	return Report{Beta: beta, Bits: bits}, nil
}

// margRRAgg has one group per marginal of C: its users are the reports
// that sampled it, its cells count those whose bit for the cell was set.
type margRRAgg struct {
	p *margRR
	CounterBlock
}

func (a *margRRAgg) Consume(rep Report) error {
	pos, ok := a.p.idx.pos.lookup(rep.Beta)
	if !ok {
		return fmt.Errorf("core: MargRR report for unknown marginal %b", rep.Beta)
	}
	words := (a.p.cells + 63) / 64
	if len(rep.Bits) != words {
		return fmt.Errorf("core: MargRR report has %d words, want %d", len(rep.Bits), words)
	}
	lo, hi := a.span(pos)
	row := a.cells[lo:hi]
	for c := range row {
		if rep.Bits[c/64]&(1<<uint(c%64)) != 0 {
			row[c]++
		}
	}
	a.users[pos]++
	a.n++
	return nil
}

// ConsumeBatch incorporates reps in order; see Aggregator.
func (a *margRRAgg) ConsumeBatch(reps []Report) error {
	for i := range reps {
		if err := a.Consume(reps[i]); err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	return nil
}

// kWayInto unbiases the PRR counts of the marginal at position pos into
// dst (dst.Beta must be the mask at pos) using its realized user count,
// and returns that count.
func (a *margRRAgg) kWayInto(pos int, dst *marginal.Table) (int, error) {
	if a.users[pos] == 0 {
		uniform(dst.Cells)
		return 0, nil
	}
	inv := 1 / float64(a.users[pos])
	lo, hi := a.span(pos)
	for c, ones := range a.cells[lo:hi] {
		dst.Cells[c] = a.p.prr.UnbiasFrequency(float64(ones) * inv)
	}
	return a.users[pos], nil
}

// Estimate answers |beta| = k directly and |beta| < k by weighted
// averaging over the collected super-marginals.
func (a *margRRAgg) Estimate(beta uint64) (*marginal.Table, error) {
	return a.p.idx.estimate("MargRR", a.p.cfg, a.n, beta, a.kWayInto)
}

// KWayTablesInto reconstructs every table of the collection; see
// margIndex.kWayTables.
func (a *margRRAgg) KWayTablesInto(k *KWayArena) error { return a.p.idx.kWayTables(k, a.kWayInto) }
