// Package freqoracle implements the frequency-oracle baselines of
// Appendix B.2: optimized local hashing (InpOLH, Wang et al.) and the
// Hadamard count-min/mean sketch (InpHTCMS, as deployed by Apple). A
// frequency oracle estimates the frequency of any item in the 2^d
// domain; marginals are materialized generically by aggregating the
// estimated item frequencies — exactly the comparison the paper runs in
// Figure 10.
//
// Both oracles satisfy core.Protocol so the shared runner drives them.
package freqoracle

import (
	"fmt"
	"math"
	"sync"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/hashing"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/mech"
	"ldpmarginals/internal/rng"
)

// MaxOracleAttributes bounds d for oracle-backed marginal estimation:
// decoding enumerates all 2^d candidate items. The OLH decode is
// additionally O(N * 2^d), which the paper observes becomes impractical
// even at d=12.
const MaxOracleAttributes = 16

// OLH is the optimized-local-hashing frequency oracle: each user draws a
// universal hash h: [2^d] -> [g], hashes their record, perturbs the
// hashed value with GRR over g categories, and reports (hash seed,
// perturbed value). Decoding scans, for every candidate item, how many
// users "support" it (their reported value equals their hash of the
// candidate).
type OLH struct {
	cfg core.Config
	g   uint64
	grr *mech.GRR
}

var _ core.Protocol = (*OLH)(nil)

// NewOLH constructs the InpOLH oracle over D, K and Epsilon, with the
// optimal hash range g = round(e^eps) + 1 of Wang et al., which is at
// least 2 for any eps > 0; OptimizedPRR does not apply.
func NewOLH(cfg core.Config) (*OLH, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.D > MaxOracleAttributes {
		return nil, fmt.Errorf("freqoracle: OLH decode is O(N*2^d); d=%d exceeds limit %d", cfg.D, MaxOracleAttributes)
	}
	g := uint64(math.Round(math.Exp(cfg.Epsilon))) + 1
	grr, err := mech.NewGRR(cfg.Epsilon, g)
	if err != nil {
		return nil, err
	}
	return &OLH{cfg: cfg, g: g, grr: grr}, nil
}

// Name returns "InpOLH".
func (o *OLH) Name() string { return "InpOLH" }

// Config returns D, K and Epsilon; OptimizedPRR is always false.
func (o *OLH) Config() core.Config {
	return core.Config{D: o.cfg.D, K: o.cfg.K, Epsilon: o.cfg.Epsilon}
}

// CommunicationBits counts the hash seed (64 bits, identifying the hash
// function) plus the perturbed value. The paper idealizes this as O(eps)
// by sharing hash choices; we report the literal message size.
func (o *OLH) CommunicationBits() int {
	return 64 + bitsFor(o.g)
}

func bitsFor(m uint64) int {
	b := 1
	for (uint64(1) << uint(b)) < m {
		b++
	}
	return b
}

// NewClient returns an OLH client.
func (o *OLH) NewClient() core.Client { return &olhClient{o: o} }

// NewAggregator returns an empty OLH aggregator.
func (o *OLH) NewAggregator() core.Aggregator { return &olhAgg{o: o} }

type olhClient struct{ o *OLH }

// Perturb draws a fresh hash function (identified by its seed, carried in
// Report.Beta), hashes the record and perturbs the hashed value with GRR
// (carried in Report.Index).
func (c *olhClient) Perturb(record uint64, r *rng.RNG) (core.Report, error) {
	if record >= 1<<uint(c.o.cfg.D) {
		return core.Report{}, fmt.Errorf("freqoracle: record %d outside 2^%d domain", record, c.o.cfg.D)
	}
	seed := r.Uint64()
	h, err := hashing.NewUniversal(seed, c.o.g)
	if err != nil {
		return core.Report{}, err
	}
	return core.Report{Beta: seed, Index: c.o.grr.Perturb(h.Hash(record), r)}, nil
}

type olhAgg struct {
	o       *OLH
	seeds   []uint64
	values  []uint64
	decoded []float64  // cached full-domain frequency estimates
	mu      sync.Mutex // guards decoded against parallel Estimate calls
}

func (a *olhAgg) N() int { return len(a.seeds) }

func (a *olhAgg) Consume(rep core.Report) error {
	if rep.Index >= a.o.g {
		return fmt.Errorf("freqoracle: OLH report value %d out of range", rep.Index)
	}
	a.seeds = append(a.seeds, rep.Beta)
	a.values = append(a.values, rep.Index)
	a.decoded = nil
	return nil
}

// ConsumeBatch incorporates a batch of reports; see core.Aggregator.
func (a *olhAgg) ConsumeBatch(reps []core.Report) error {
	return core.ConsumeAll(a, reps)
}

func (a *olhAgg) Merge(other core.Aggregator) error {
	ot, ok := other.(*olhAgg)
	if !ok {
		return fmt.Errorf("freqoracle: merging %T into OLH aggregator", other)
	}
	a.seeds = append(a.seeds, ot.seeds...)
	a.values = append(a.values, ot.values...)
	a.decoded = nil
	return nil
}

// EstimateAll decodes frequency estimates for every item in the domain —
// the O(N * 2^d) support scan the paper times out beyond small d. The
// result is cached until new reports arrive.
func (a *olhAgg) EstimateAll() ([]float64, error) {
	// A view build estimates every table at once: the first call decodes,
	// the others wait for its cache.
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.decoded != nil {
		return a.decoded, nil
	}
	n := len(a.seeds)
	if n == 0 {
		return nil, fmt.Errorf("freqoracle: OLH aggregator has no reports")
	}
	size := uint64(1) << uint(a.o.cfg.D)
	support := make([]float64, size)
	for i := 0; i < n; i++ {
		h, err := hashing.NewUniversal(a.seeds[i], a.o.g)
		if err != nil {
			return nil, err
		}
		v := a.values[i]
		for x := uint64(0); x < size; x++ {
			if h.Hash(x) == v {
				support[x]++
			}
		}
	}
	// Unbias: E[support(x)/N] = f_x * p + (1 - f_x) / g, with p the GRR
	// keep probability (a non-matching item is supported when the
	// perturbed value lands on its hash bucket, probability 1/g under a
	// fresh universal hash).
	p := a.o.grr.Ps
	invG := 1 / float64(a.o.g)
	est := make([]float64, size)
	for x := range est {
		est[x] = (support[x]/float64(n) - invG) / (p - invG)
	}
	a.decoded = est
	return est, nil
}

// Estimate materializes the marginal over beta from the decoded item
// frequencies.
func (a *olhAgg) Estimate(beta uint64) (*marginal.Table, error) {
	if err := checkBeta(beta, a.o.cfg.D, a.o.cfg.K); err != nil {
		return nil, err
	}
	est, err := a.EstimateAll()
	if err != nil {
		return nil, err
	}
	return tableFromFrequencies(est, beta)
}

func checkBeta(beta uint64, d, k int) error {
	if beta == 0 {
		return fmt.Errorf("freqoracle: empty marginal query")
	}
	if beta >= 1<<uint(d) {
		return fmt.Errorf("freqoracle: marginal %b outside %d attributes", beta, d)
	}
	if kk := bitops.OnesCount(beta); kk > k {
		return fmt.Errorf("freqoracle: marginal has %d attributes but k<=%d supported", kk, k)
	}
	return nil
}

func tableFromFrequencies(freqs []float64, beta uint64) (*marginal.Table, error) {
	out, err := marginal.New(beta)
	if err != nil {
		return nil, err
	}
	for x, f := range freqs {
		out.Cells[bitops.Compress(uint64(x), beta)] += f
	}
	return out, nil
}
