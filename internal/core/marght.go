package core

import (
	"fmt"

	"ldpmarginals/internal/hadamard"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/mech"
	"ldpmarginals/internal/rng"
)

// margHT is the MargHT protocol (Section 4.3): each user samples one of
// the C(d,k) k-way marginals, takes the Hadamard transform of their
// (one-hot) marginal, and releases one randomly chosen coefficient via
// randomized response. Unlike InpHT, information is not shared between
// marginals, so each of the C(d,k) tables is reconstructed from its own
// users only.
//
// The user samples among the 2^k - 1 non-constant coefficients of the
// sampled marginal; the alpha = 0 coefficient is always exactly 1 and
// carrying it would waste budget (an ablation bench quantifies this
// choice).
type margHT struct {
	cfg   Config
	rr    *mech.RR
	idx   *margIndex
	cells int // 2^k
}

// NewMargHT constructs the MargHT protocol.
func NewMargHT(cfg Config) (Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.K > 20 {
		return nil, fmt.Errorf("core: MargHT with k=%d would track 2^%d coefficients per marginal", cfg.K, cfg.K)
	}
	rr, err := mech.NewRR(cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	return &margHT{cfg: cfg, rr: rr, idx: newMargIndex(cfg.D, cfg.K), cells: 1 << uint(cfg.K)}, nil
}

func (p *margHT) Name() string   { return "MargHT" }
func (p *margHT) Config() Config { return p.cfg }

// CommunicationBits is d bits for the marginal, k bits for the
// coefficient index, and 1 bit for the perturbed value (Table 2).
func (p *margHT) CommunicationBits() int { return p.cfg.D + p.cfg.K + 1 }

func (p *margHT) NewClient() Client { return &margHTClient{p: p} }

func (p *margHT) NewAggregator() Aggregator {
	return &margHTAgg{p: p, CounterBlock: NewCounterBlock("MargHT", stateKindMargHT, SignCounters, len(p.idx.masks), p.cells)}
}

type margHTClient struct{ p *margHT }

// Perturb samples a marginal and a non-constant coefficient of its
// subcube, evaluates the coefficient's sign on the user's compact cell,
// and flips it through eps-RR. The compact-index identity
// <Expand(alpha,beta), record> = <alpha, Compress(record,beta)> makes the
// k-bit computation equivalent to the full-domain one.
func (c *margHTClient) Perturb(record uint64, r *rng.RNG) (Report, error) {
	if record >= 1<<uint(c.p.cfg.D) {
		return Report{}, fmt.Errorf("core: record %d outside 2^%d domain", record, c.p.cfg.D)
	}
	beta := c.p.idx.masks[r.Intn(len(c.p.idx.masks))]
	cell := marginal.CellOfRecord(record, beta)
	alpha := uint64(1 + r.Intn(c.p.cells-1)) // compact, non-zero
	sign := c.p.rr.PerturbSign(hadamard.Sign(cell, alpha), r)
	return Report{Beta: beta, Index: alpha, Sign: int8(sign)}, nil
}

// margHTAgg has one group per marginal of C: its users are the reports
// that sampled it, its cells keep per compact coefficient the sum of
// reported signs and the report count (cell 0, the constant coefficient,
// stays empty).
type margHTAgg struct {
	p *margHT
	CounterBlock
}

func (a *margHTAgg) Consume(rep Report) error {
	pos, ok := a.p.idx.pos.lookup(rep.Beta)
	if !ok {
		return fmt.Errorf("core: MargHT report for unknown marginal %b", rep.Beta)
	}
	if rep.Index == 0 || rep.Index >= uint64(a.p.cells) {
		return fmt.Errorf("core: MargHT report coefficient %d out of range", rep.Index)
	}
	if rep.Sign != 1 && rep.Sign != -1 {
		return fmt.Errorf("core: MargHT report sign %d is not +-1", rep.Sign)
	}
	a.AddSign(pos, int(rep.Index), rep.Sign)
	return nil
}

// ConsumeBatch incorporates reps in order; see Aggregator. Same shape
// as inpHTAgg.ConsumeBatch: dense-table hits with a non-constant
// in-range coefficient and a +-1 sign are counted in the loop,
// everything else goes through Consume.
func (a *margHTAgg) ConsumeBatch(reps []Report) error {
	dense, sums, counts, users := a.p.idx.pos.dense, a.sums, a.counts, a.users
	cells := uint64(a.p.cells)
	fast := 0
	for i := range reps {
		r := &reps[i]
		if r.Beta < uint64(len(dense)) && r.Index != 0 && r.Index < cells && (r.Sign == 1 || r.Sign == -1) {
			if p := dense[r.Beta]; p != 0 {
				c := uint64(p-1)*cells + r.Index
				sums[c] += int64(r.Sign)
				counts[c]++
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

// kWayInto reconstructs the marginal at position pos into dst (dst.Beta
// must be the mask at pos) from its estimated coefficient vector by one
// inverse transform over the 2^k subcube, and returns its user count.
func (a *margHTAgg) kWayInto(pos int, dst *marginal.Table) (int, error) {
	if a.users[pos] == 0 {
		uniform(dst.Cells)
		return 0, nil
	}
	cells := dst.Cells
	lo, hi := a.span(pos)
	sums, counts := a.sums[lo:hi], a.counts[lo:hi]
	cells[0] = 1
	for c := 1; c < a.p.cells; c++ {
		if counts[c] == 0 {
			cells[c] = 0
			continue
		}
		mean := float64(sums[c]) / float64(counts[c])
		cells[c] = a.rrUnbias(mean)
	}
	if err := hadamard.InverseWHT(cells); err != nil {
		return 0, err
	}
	return a.users[pos], nil
}

func (a *margHTAgg) rrUnbias(mean float64) float64 { return a.p.rr.UnbiasSign(mean) }

// Estimate answers |beta| = k directly and |beta| < k by weighted
// averaging over the collected super-marginals.
func (a *margHTAgg) Estimate(beta uint64) (*marginal.Table, error) {
	return a.p.idx.estimate("MargHT", a.p.cfg, a.n, beta, a.kWayInto)
}
