// Package em implements the InpEM baseline of Section 4.4 (Fanti et
// al.): every user perturbs each of their d attribute bits independently
// with (eps/d)-randomized response (budget splitting), and the aggregator
// decodes a target marginal with expectation maximization over the
// observed reported-bit combinations.
//
// The method has no worst-case accuracy guarantee. For small eps or large
// d the per-bit flip probability approaches 1/2, the EM update becomes a
// fixed point at the uniform prior, and the procedure "fails" by
// terminating immediately — the behaviour quantified in the paper's
// Table 3. The aggregator exposes the iteration count and failure flag so
// experiments can reproduce that table.
package em

import (
	"fmt"
	"math"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/mech"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/vec"
	"ldpmarginals/internal/wire"
)

// DefaultOmega is the paper's EM convergence threshold (Section 5.4).
const DefaultOmega = 1e-5

// DefaultMaxIterations bounds the EM loop; the paper reports convergence
// within thousands to tens of thousands of iterations.
const DefaultMaxIterations = 100000

// Result is a decoded marginal along with EM diagnostics.
type Result struct {
	// Table is the decoded marginal distribution.
	Table *marginal.Table
	// Failed records the paper's failure mode: the procedure converged
	// after at most one step, returning (essentially) the uniform prior.
	Failed bool
}

// Protocol is the InpEM baseline. It satisfies core.Protocol so the
// shared runner and experiment harness can drive it alongside the paper's
// six protocols.
type Protocol struct {
	cfg core.Config
	rr  *mech.RR // per-bit (eps/d)-randomized response
}

var _ core.Protocol = (*Protocol)(nil)

// New constructs the InpEM protocol over D, K and Epsilon (split as
// eps/d per bit); OptimizedPRR does not apply. Decoding stops at the
// paper's DefaultOmega or after DefaultMaxIterations.
func New(cfg core.Config) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	perBit, err := mech.SplitEpsilon(cfg.Epsilon, cfg.D)
	if err != nil {
		return nil, err
	}
	rr, err := mech.NewRR(perBit)
	if err != nil {
		return nil, err
	}
	return &Protocol{cfg: cfg, rr: rr}, nil
}

// Name returns "InpEM".
func (p *Protocol) Name() string { return "InpEM" }

// Config returns D, K and Epsilon; OptimizedPRR is always false.
func (p *Protocol) Config() core.Config {
	return core.Config{D: p.cfg.D, K: p.cfg.K, Epsilon: p.cfg.Epsilon}
}

// CommunicationBits is d: one randomized bit per attribute.
func (p *Protocol) CommunicationBits() int { return p.cfg.D }

// NewClient returns the budget-splitting client.
func (p *Protocol) NewClient() core.Client { return &client{p: p} }

// NewAggregator returns an empty EM aggregator.
func (p *Protocol) NewAggregator() core.Aggregator { return &Aggregator{p: p} }

type client struct{ p *Protocol }

// Perturb flips every attribute bit independently with the per-bit
// randomized response and reports the resulting mask in Report.Index.
func (c *client) Perturb(record uint64, r *rng.RNG) (core.Report, error) {
	if record >= 1<<uint(c.p.cfg.D) {
		return core.Report{}, fmt.Errorf("em: record %d outside 2^%d domain", record, c.p.cfg.D)
	}
	var out uint64
	for j := 0; j < c.p.cfg.D; j++ {
		bit := record&(1<<uint(j)) != 0
		if c.p.rr.PerturbBit(bit, r) {
			out |= 1 << uint(j)
		}
	}
	return core.Report{Index: out}, nil
}

// Aggregator stores the reported masks and decodes marginals on demand
// with EM. It satisfies core.Aggregator.
type Aggregator struct {
	p       *Protocol
	reports []uint64
}

// N returns the number of reports consumed.
func (a *Aggregator) N() int { return len(a.reports) }

// Consume stores one reported mask.
func (a *Aggregator) Consume(rep core.Report) error {
	if rep.Index >= 1<<uint(a.p.cfg.D) {
		return fmt.Errorf("em: report %d outside 2^%d domain", rep.Index, a.p.cfg.D)
	}
	a.reports = append(a.reports, rep.Index)
	return nil
}

// ConsumeBatch stores a batch of reported masks; see core.Aggregator.
func (a *Aggregator) ConsumeBatch(reps []core.Report) error {
	return core.ConsumeAll(a, reps)
}

// Merge folds another EM aggregator's reports into this one.
func (a *Aggregator) Merge(other core.Aggregator) error {
	o, ok := other.(*Aggregator)
	if !ok {
		return fmt.Errorf("em: merging %T into EM aggregator", other)
	}
	a.reports = append(a.reports, o.reports...)
	return nil
}

// stateKindEM continues the state-kind numbering of internal/core; part
// of the persisted snapshot format.
const (
	stateKindEM  byte = 7
	stateVersion byte = 1
)

// MarshalState serializes the stored report masks; see core.Aggregator.
// Unlike the counter protocols, EM keeps raw reports, so the state
// preserves their arrival order.
func (a *Aggregator) MarshalState() ([]byte, error) {
	e := wire.NewStateEncoder(stateKindEM, stateVersion)
	e.Uint64s(a.reports)
	return e.Bytes(), nil
}

// UnmarshalState replaces the stored reports; see core.Aggregator.
func (a *Aggregator) UnmarshalState(data []byte) error {
	d, err := wire.NewStateDecoder(data, stateKindEM, stateVersion)
	if err != nil {
		return fmt.Errorf("em: state: %w", err)
	}
	reports := d.Uint64s(-1)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("em: state: %w", err)
	}
	for i, rep := range reports {
		if rep >= 1<<uint(a.p.cfg.D) {
			return fmt.Errorf("em: state: report %d mask %d outside 2^%d domain", i, rep, a.p.cfg.D)
		}
	}
	a.reports = reports
	return nil
}

// Estimate decodes the marginal over beta, discarding diagnostics.
func (a *Aggregator) Estimate(beta uint64) (*marginal.Table, error) {
	res, err := a.EstimateDetailed(beta)
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}

// EstimateDetailed decodes the marginal over beta with EM and reports the
// iteration count and the immediate-convergence failure flag.
func (a *Aggregator) EstimateDetailed(beta uint64) (*Result, error) {
	if beta == 0 || beta >= 1<<uint(a.p.cfg.D) {
		return nil, fmt.Errorf("em: marginal %b outside %d attributes", beta, a.p.cfg.D)
	}
	k := bitops.OnesCount(beta)
	if k > a.p.cfg.K {
		return nil, fmt.Errorf("em: marginal has %d attributes but k<=%d supported", k, a.p.cfg.K)
	}
	if len(a.reports) == 0 {
		return nil, fmt.Errorf("em: no reports")
	}
	size := 1 << uint(k)
	// Observed distribution of reported combos over beta's bits.
	observed := make([]float64, size)
	for _, rep := range a.reports {
		observed[bitops.Compress(rep, beta)]++
	}
	vec.Scale(observed, 1/float64(len(a.reports)))

	theta, iters, err := Decode(observed, Channel(k, p2flip(a.p.rr.P)), DefaultOmega, DefaultMaxIterations)
	if err != nil {
		return nil, err
	}
	tab, err := marginal.FromCells(beta, theta)
	if err != nil {
		return nil, err
	}
	return &Result{Table: tab, Failed: iters <= 1}, nil
}

func p2flip(keep float64) float64 { return 1 - keep }

// Channel builds the 2^k x 2^k observation matrix A[y][x] = P(report y |
// truth x) of k independent bits each flipped with probability flip.
func Channel(k int, flip float64) [][]float64 {
	size := 1 << uint(k)
	a := make([][]float64, size)
	keep := 1 - flip
	for y := 0; y < size; y++ {
		a[y] = make([]float64, size)
		for x := 0; x < size; x++ {
			diff := bitops.OnesCount(uint64(y ^ x))
			a[y][x] = math.Pow(flip, float64(diff)) * math.Pow(keep, float64(k-diff))
		}
	}
	return a
}

// Decode runs expectation maximization: starting from the uniform prior
// over the 2^k true combos, it alternates the posterior (expectation)
// and re-marginalization (maximization) steps until the L-infinity
// change drops below omega or maxIters is reached. It returns the final
// estimate and the number of iterations performed.
func Decode(observed []float64, channel [][]float64, omega float64, maxIters int) ([]float64, int, error) {
	size := len(observed)
	if size == 0 || len(channel) != size {
		return nil, 0, fmt.Errorf("em: observed (%d) and channel (%d) sizes disagree", size, len(channel))
	}
	theta := vec.Uniform(size)
	next := make([]float64, size)
	var iters int
	for iters = 1; iters <= maxIters; iters++ {
		for x := range next {
			next[x] = 0
		}
		for y := 0; y < size; y++ {
			if observed[y] == 0 {
				continue
			}
			// Posterior P(x|y) proportional to theta[x] * A[y][x].
			var norm float64
			for x := 0; x < size; x++ {
				norm += theta[x] * channel[y][x]
			}
			if norm <= 0 {
				continue
			}
			w := observed[y] / norm
			for x := 0; x < size; x++ {
				next[x] += w * theta[x] * channel[y][x]
			}
		}
		vec.Normalize(next)
		delta := vec.MaxAbsDiff(theta, next)
		copy(theta, next)
		if delta < omega {
			break
		}
	}
	if iters > maxIters {
		iters = maxIters
	}
	return theta, iters, nil
}
