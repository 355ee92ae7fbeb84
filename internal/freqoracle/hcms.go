package freqoracle

import (
	"fmt"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/hadamard"
	"ldpmarginals/internal/hashing"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/mech"
	"ldpmarginals/internal/rng"
)

// HCMSConfig parameterizes the InpHTCMS oracle. The paper's experimental
// setting is G = 5 hash functions of width W = 256.
type HCMSConfig struct {
	// D, K, Epsilon as in core.Config.
	D       int
	K       int
	Epsilon float64
	// G is the number of sketch rows (hash functions); default 5.
	G int
	// W is the sketch width; must be a power of two; default 256.
	W int
	// Seed fixes the shared hash family. All clients and the aggregator
	// of one deployment must agree on it.
	Seed uint64
}

func (c HCMSConfig) withDefaults() HCMSConfig {
	if c.G == 0 {
		c.G = 5
	}
	if c.W == 0 {
		c.W = 256
	}
	return c
}

// HCMS is the Hadamard count-min/mean sketch oracle: a shared family of
// g 3-wise-independent hash functions maps items to a width-w sketch
// row. Each user picks one row uniformly, hashes their record into it,
// and releases a single randomized Hadamard coefficient of the one-hot
// hashed vector (the transform reduces communication to one bit of
// payload). The aggregator reconstructs each row by an inverse transform
// and applies the count-mean debiasing to estimate item frequencies.
type HCMS struct {
	cfg    HCMSConfig
	rr     *mech.RR
	family *hashing.Family
}

var _ core.Protocol = (*HCMS)(nil)

// NewHCMS constructs the InpHTCMS oracle.
func NewHCMS(cfg HCMSConfig) (*HCMS, error) {
	cfg = cfg.withDefaults()
	cc := core.Config{D: cfg.D, K: cfg.K, Epsilon: cfg.Epsilon}
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	if cfg.D > MaxOracleAttributes {
		return nil, fmt.Errorf("freqoracle: HCMS decode enumerates 2^d items; d=%d exceeds limit %d", cfg.D, MaxOracleAttributes)
	}
	if cfg.W < 2 || cfg.W&(cfg.W-1) != 0 {
		return nil, fmt.Errorf("freqoracle: sketch width %d must be a power of two >= 2", cfg.W)
	}
	if cfg.G < 1 {
		return nil, fmt.Errorf("freqoracle: sketch needs at least one row, got %d", cfg.G)
	}
	rr, err := mech.NewRR(cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	family, err := hashing.NewFamily(cfg.Seed^0x48434d53, cfg.G, uint64(cfg.W))
	if err != nil {
		return nil, err
	}
	return &HCMS{cfg: cfg, rr: rr, family: family}, nil
}

// Name returns "InpHTCMS".
func (h *HCMS) Name() string { return "InpHTCMS" }

// Config adapts to the shared core form.
func (h *HCMS) Config() core.Config {
	return core.Config{D: h.cfg.D, K: h.cfg.K, Epsilon: h.cfg.Epsilon}
}

// CommunicationBits counts the row index, the coefficient index
// (log2 w bits) and the single perturbed bit.
func (h *HCMS) CommunicationBits() int {
	return bitsFor(uint64(h.cfg.G)) + bitsFor(uint64(h.cfg.W)) + 1
}

// NewClient returns an HCMS client.
func (h *HCMS) NewClient() core.Client { return &hcmsClient{h: h} }

// NewAggregator returns an empty HCMS aggregator.
func (h *HCMS) NewAggregator() core.Aggregator {
	return &hcmsAgg{h: h, CounterBlock: core.NewCounterBlock("InpHTCMS", stateKindHCMS, core.SignCounters, h.cfg.G, h.cfg.W)}
}

type hcmsClient struct{ h *HCMS }

// Perturb picks a sketch row (Report.Beta), hashes the record into it,
// and releases the randomized sign of one uniformly chosen Hadamard
// coefficient (Report.Index) of the one-hot hashed vector.
func (c *hcmsClient) Perturb(record uint64, r *rng.RNG) (core.Report, error) {
	if record >= 1<<uint(c.h.cfg.D) {
		return core.Report{}, fmt.Errorf("freqoracle: record %d outside 2^%d domain", record, c.h.cfg.D)
	}
	row := r.Intn(c.h.cfg.G)
	cell := c.h.family.Hash(row, record)
	coeff := r.Uint64n(uint64(c.h.cfg.W))
	sign := c.h.rr.PerturbSign(hadamard.Sign(cell, coeff), r)
	return core.Report{Beta: uint64(row), Index: coeff, Sign: int8(sign)}, nil
}

// hcmsAgg keeps its state in a sign-class core.CounterBlock with one
// group per sketch row and one cell per Hadamard coefficient of the row.
// It embeds the block, which does its merging, unmerging, copying and
// state codec; with KWayTablesInto, which reconstructs the collection
// from one EstimateAll, it is a core.Folder and served like the core
// protocols.
type hcmsAgg struct {
	h *HCMS
	core.CounterBlock
}

func (a *hcmsAgg) Consume(rep core.Report) error {
	row := int(rep.Beta)
	if row < 0 || row >= a.h.cfg.G {
		return fmt.Errorf("freqoracle: HCMS report row %d out of range", row)
	}
	if rep.Index >= uint64(a.h.cfg.W) {
		return fmt.Errorf("freqoracle: HCMS report coefficient %d out of range", rep.Index)
	}
	if rep.Sign != 1 && rep.Sign != -1 {
		return fmt.Errorf("freqoracle: HCMS report sign %d is not +-1", rep.Sign)
	}
	a.AddSign(row, int(rep.Index), rep.Sign)
	return nil
}

// ConsumeBatch incorporates a batch of reports; see core.Aggregator.
func (a *hcmsAgg) ConsumeBatch(reps []core.Report) error {
	return core.ConsumeAll(a, reps)
}

// rowDistribution reconstructs the normalized cell distribution of one
// sketch row from its estimated Hadamard coefficients.
func (a *hcmsAgg) rowDistribution(row int) ([]float64, error) {
	cells := make([]float64, a.h.cfg.W)
	cells[0] = 1
	for c := 1; c < a.h.cfg.W; c++ {
		sum, count := a.SignCell(row, c)
		if count == 0 {
			continue
		}
		mean := float64(sum) / float64(count)
		cells[c] = a.h.rr.UnbiasSign(mean)
	}
	if err := hadamard.InverseWHT(cells); err != nil {
		return nil, err
	}
	return cells, nil
}

// EstimateAll estimates the frequency of every item with the count-mean
// debiasing: for each row, E[row[h(x)]] = f_x + (1 - f_x)/w, so each row
// yields an unbiased estimate (row[h(x)] - 1/w) * w/(w-1); rows are
// averaged.
func (a *hcmsAgg) EstimateAll() ([]float64, error) {
	if a.N() == 0 {
		return nil, fmt.Errorf("freqoracle: HCMS aggregator has no reports")
	}
	w := float64(a.h.cfg.W)
	rows := make([][]float64, a.h.cfg.G)
	for g := 0; g < a.h.cfg.G; g++ {
		dist, err := a.rowDistribution(g)
		if err != nil {
			return nil, err
		}
		rows[g] = dist
	}
	size := uint64(1) << uint(a.h.cfg.D)
	est := make([]float64, size)
	for x := uint64(0); x < size; x++ {
		var sum float64
		var used int
		for g := 0; g < a.h.cfg.G; g++ {
			if a.GroupUsers(g) == 0 {
				continue
			}
			cell := a.h.family.Hash(g, x)
			sum += (rows[g][cell] - 1/w) * w / (w - 1)
			used++
		}
		if used > 0 {
			est[x] = sum / float64(used)
		}
	}
	return est, nil
}

// Estimate materializes the marginal over beta from the estimated item
// frequencies.
func (a *hcmsAgg) Estimate(beta uint64) (*marginal.Table, error) {
	if err := checkBeta(beta, a.h.cfg.D, a.h.cfg.K); err != nil {
		return nil, err
	}
	est, err := a.EstimateAll()
	if err != nil {
		return nil, err
	}
	return tableFromFrequencies(est, beta)
}

// KWayTablesInto reconstructs every table of the collection from one
// EstimateAll: the item frequencies form a vector over the 2^d domain,
// and core.KWayArena.ReconstructDomain sums it into every table through
// one transform. Every report informs every table: each gets Users = N.
// The per-mask Estimate sums the same frequencies cell by cell, so the
// two agree up to summation order.
func (a *hcmsAgg) KWayTablesInto(k *core.KWayArena) error {
	est, err := a.EstimateAll()
	if err != nil {
		return err
	}
	return k.ReconstructDomain(est, a.N(), nil)
}
