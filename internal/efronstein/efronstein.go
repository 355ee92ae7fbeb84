// Package efronstein implements the categorical-data extension
// conjectured in Section 6.3 of the paper: a protocol in the style of
// InpHT built on the Efron-Stein orthogonal decomposition, which
// generalizes the Hadamard transform from the Boolean hypercube to
// products of arbitrary finite domains.
//
// For an attribute with r values we use the Helmert orthonormal basis
// {chi_0 = 1, chi_1, ..., chi_{r-1}} of real functions on [r] under the
// uniform measure. Tensor products of per-attribute basis functions give
// an orthonormal basis of the product domain, indexed by a "level"
// vector; the Efron-Stein component of a subset S collects indices whose
// non-zero levels sit exactly on S. As with the Hadamard case, a k-way
// marginal over attributes A is determined by the coefficients supported
// inside A, so collecting levels with support size 1..k suffices for all
// k-way marginals.
//
// Each user samples one coefficient, evaluates it on their record (a
// bounded real value, not just +-1), rounds it to a single unbiased bit,
// and releases that bit through eps-randomized response — so the
// per-user privacy analysis is exactly Warner's, and the estimator stays
// unbiased.
package efronstein

import (
	"fmt"
	"math"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/mech"
	"ldpmarginals/internal/rng"
)

// Basis returns the Helmert-style orthonormal basis of functions on an
// r-valued domain under the uniform measure: Basis(r)[j][x] is
// chi_j(x), with chi_0 identically 1 and
// (1/r) * sum_x chi_j(x) chi_k(x) = delta_{jk}.
func Basis(r int) ([][]float64, error) {
	if r < 2 {
		return nil, fmt.Errorf("efronstein: domain size %d must be at least 2", r)
	}
	chi := make([][]float64, r)
	for j := range chi {
		chi[j] = make([]float64, r)
	}
	for x := 0; x < r; x++ {
		chi[0][x] = 1
	}
	// Helmert rows orthonormal under counting measure, scaled by sqrt(r)
	// for the uniform probability measure: row j has j entries of
	// 1/sqrt(j(j+1)), then -j/sqrt(j(j+1)), then zeros.
	for j := 1; j < r; j++ {
		scale := math.Sqrt(float64(r) / float64(j*(j+1)))
		for x := 0; x < j; x++ {
			chi[j][x] = scale
		}
		chi[j][j] = -scale * float64(j)
	}
	return chi, nil
}

// Config parameterizes the InpES protocol.
type Config struct {
	// Cardinalities lists the categorical attribute sizes (each >= 2).
	Cardinalities []int
	// K is the largest number of attributes per queried marginal.
	K int
	// Epsilon is the local privacy budget.
	Epsilon float64
}

// coeff is one collected Efron-Stein coefficient: the attributes of its
// support, the per-attribute basis levels (all >= 1), and the public
// bound on |chi| over the domain.
type coeff struct {
	attrs  []int
	levels []int
	bound  float64
}

// Protocol is InpES. It satisfies core.Protocol over bit-group-encoded
// categorical records (dataset.Categorical.EncodeBinary), so the shared
// runner drives it directly and its estimates are comparable cell-by-cell
// with the binary protocols on the same encoded data.
type Protocol struct {
	cfg    Config
	rr     *mech.RR
	bases  [][][]float64 // per attribute: chi[j][x]
	coeffs []coeff
	// bit-group layout of the encoded records
	groups  []uint64
	offsets []int
	widths  []int
	d2      int
}

var _ core.Protocol = (*Protocol)(nil)

// New constructs the InpES protocol.
func New(cfg Config) (*Protocol, error) {
	d := len(cfg.Cardinalities)
	if d == 0 {
		return nil, fmt.Errorf("efronstein: no attributes")
	}
	if cfg.K < 1 || cfg.K > d {
		return nil, fmt.Errorf("efronstein: k=%d out of range (1..%d)", cfg.K, d)
	}
	if cfg.Epsilon <= 0 {
		return nil, fmt.Errorf("efronstein: epsilon must be positive, got %v", cfg.Epsilon)
	}
	rr, err := mech.NewRR(cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	p := &Protocol{cfg: cfg, rr: rr}
	offset := 0
	for _, r := range cfg.Cardinalities {
		if r < 2 || r > 256 {
			return nil, fmt.Errorf("efronstein: cardinality %d out of range (2..256)", r)
		}
		basis, err := Basis(r)
		if err != nil {
			return nil, err
		}
		p.bases = append(p.bases, basis)
		width := bitsLen(r - 1)
		p.offsets = append(p.offsets, offset)
		p.widths = append(p.widths, width)
		p.groups = append(p.groups, ((uint64(1)<<uint(width))-1)<<uint(offset))
		offset += width
	}
	p.d2 = offset
	if p.d2 > bitops.MaxAttributes {
		return nil, fmt.Errorf("efronstein: encoded dimension %d exceeds limit %d", p.d2, bitops.MaxAttributes)
	}
	p.coeffs = enumerateCoeffs(cfg.Cardinalities, cfg.K, p.bases)
	if len(p.coeffs) == 0 {
		return nil, fmt.Errorf("efronstein: empty coefficient set")
	}
	return p, nil
}

func bitsLen(v int) int {
	n := 0
	for ; v > 0; v >>= 1 {
		n++
	}
	if n == 0 {
		n = 1
	}
	return n
}

// enumerateCoeffs lists every coefficient with support size 1..k: for
// each attribute subset, the cross product of levels 1..r_i-1.
func enumerateCoeffs(cards []int, k int, bases [][][]float64) []coeff {
	d := len(cards)
	var out []coeff
	for size := 1; size <= k; size++ {
		for _, mask := range bitops.MasksWithExactlyK(d, size) {
			attrs := bitops.BitPositions(mask)
			levels := make([]int, len(attrs))
			for i := range levels {
				levels[i] = 1
			}
			for {
				// Record the current level combination.
				c := coeff{
					attrs:  append([]int(nil), attrs...),
					levels: append([]int(nil), levels...),
					bound:  1,
				}
				for i, a := range attrs {
					c.bound *= maxAbs(bases[a][levels[i]])
				}
				out = append(out, c)
				// Advance the mixed-radix counter over levels.
				i := 0
				for ; i < len(levels); i++ {
					levels[i]++
					if levels[i] < cards[attrs[i]] {
						break
					}
					levels[i] = 1
				}
				if i == len(levels) {
					break
				}
			}
		}
	}
	return out
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Name returns "InpES".
func (p *Protocol) Name() string { return "InpES" }

// Config adapts the deployment to the shared core form: D is the encoded
// binary dimension, K the binary width of the largest supported marginal.
func (p *Protocol) Config() core.Config {
	// K in binary terms: the widest K-attribute combination.
	return core.Config{D: p.d2, K: p.d2, Epsilon: p.cfg.Epsilon}
}

// CommunicationBits counts the coefficient index plus the single
// randomized bit.
func (p *Protocol) CommunicationBits() int {
	return bitsLen(len(p.coeffs)-1) + 1
}

// NewClient returns an InpES client.
func (p *Protocol) NewClient() core.Client { return &client{p: p} }

// NewAggregator returns an empty InpES aggregator.
func (p *Protocol) NewAggregator() core.Aggregator {
	return &Aggregator{p: p, blk: core.NewCounterBlock("InpES", stateKindES, core.SignCounters, 0, len(p.coeffs))}
}

// values unpacks the per-attribute categorical values from an encoded
// record.
func (p *Protocol) values(record uint64) ([]int, error) {
	vals := make([]int, len(p.cfg.Cardinalities))
	for i := range vals {
		v := int((record >> uint(p.offsets[i])) & ((1 << uint(p.widths[i])) - 1))
		if v >= p.cfg.Cardinalities[i] {
			return nil, fmt.Errorf("efronstein: record encodes value %d for attribute %d (cardinality %d)",
				v, i, p.cfg.Cardinalities[i])
		}
		vals[i] = v
	}
	return vals, nil
}

type client struct{ p *Protocol }

// Perturb samples a coefficient, evaluates it on the record, rounds the
// bounded value to one unbiased bit, and flips that bit with
// eps-randomized response.
func (c *client) Perturb(record uint64, r *rng.RNG) (core.Report, error) {
	vals, err := c.p.values(record)
	if err != nil {
		return core.Report{}, err
	}
	idx := r.Intn(len(c.p.coeffs))
	co := &c.p.coeffs[idx]
	v := 1.0
	for i, a := range co.attrs {
		v *= c.p.bases[a][co.levels[i]][vals[a]]
	}
	// Unbiased one-bit rounding of v in [-B, B]: P(+1) = 1/2 + v/2B.
	q := 0.5 + v/(2*co.bound)
	bit := r.Bernoulli(q)
	sign := 1.0
	if !bit {
		sign = -1
	}
	sign = c.p.rr.PerturbSign(sign, r)
	return core.Report{Index: uint64(idx), Sign: int8(sign)}, nil
}

// stateKindES continues the state-kind numbering of internal/core and
// internal/freqoracle; part of the persisted snapshot format.
const stateKindES byte = 10

// Aggregator accumulates InpES reports and reconstructs categorical
// marginals. Its state is an ungrouped sign-class core.CounterBlock, one
// cell per collected coefficient, which also does its merging and its
// state codec. The block is a field and not embedded: embedding would
// add Unmerge and CopyStateFrom and make InpES a core.Folder, which only
// a served protocol needs, and serving InpES's categorical records is a
// decision of its own.
type Aggregator struct {
	p   *Protocol
	blk core.CounterBlock
}

// N returns the number of reports consumed.
func (a *Aggregator) N() int { return a.blk.N() }

// Counters exposes the block to the blocks it is merged into.
func (a *Aggregator) Counters() *core.CounterBlock { return &a.blk }

// Consume incorporates one report.
func (a *Aggregator) Consume(rep core.Report) error {
	if rep.Index >= uint64(len(a.p.coeffs)) {
		return fmt.Errorf("efronstein: coefficient index %d out of range", rep.Index)
	}
	if rep.Sign != 1 && rep.Sign != -1 {
		return fmt.Errorf("efronstein: sign %d is not +-1", rep.Sign)
	}
	a.blk.AddSign(0, int(rep.Index), rep.Sign)
	return nil
}

// ConsumeBatch incorporates a batch of reports; see core.Aggregator.
func (a *Aggregator) ConsumeBatch(reps []core.Report) error {
	return core.ConsumeAll(a, reps)
}

// Merge folds another InpES aggregator into this one.
func (a *Aggregator) Merge(other core.Aggregator) error { return a.blk.Merge(other) }

// MarshalState serializes the per-coefficient counters; see
// core.Aggregator.
func (a *Aggregator) MarshalState() ([]byte, error) { return a.blk.MarshalState() }

// UnmarshalState replaces the per-coefficient counters; see
// core.Aggregator.
func (a *Aggregator) UnmarshalState(data []byte) error { return a.blk.UnmarshalState(data) }

// theta returns the unbiased estimate of coefficient i:
// E[sign] = (2p-1) * v/B, so theta = B * mean / (2p-1).
func (a *Aggregator) theta(i int) float64 {
	sum, count := a.blk.SignCell(0, i)
	if count == 0 {
		return 0
	}
	mean := float64(sum) / float64(count)
	return a.p.coeffs[i].bound * a.p.rr.UnbiasSign(mean)
}

// EstimateCategorical reconstructs the joint distribution of the given
// attribute subset (at most K attributes) as a dense vector in
// mixed-radix order: index = v_{a0} + r_{a0}*(v_{a1} + ...).
func (a *Aggregator) EstimateCategorical(attrs []int) ([]float64, error) {
	if a.N() == 0 {
		return nil, fmt.Errorf("efronstein: no reports")
	}
	if len(attrs) == 0 || len(attrs) > a.p.cfg.K {
		return nil, fmt.Errorf("efronstein: marginal over %d attributes unsupported (k=%d)", len(attrs), a.p.cfg.K)
	}
	seen := map[int]bool{}
	size := 1
	for _, at := range attrs {
		if at < 0 || at >= len(a.p.cfg.Cardinalities) {
			return nil, fmt.Errorf("efronstein: attribute %d out of range", at)
		}
		if seen[at] {
			return nil, fmt.Errorf("efronstein: attribute %d repeated", at)
		}
		seen[at] = true
		size *= a.p.cfg.Cardinalities[at]
	}
	attrPos := map[int]int{}
	for i, at := range attrs {
		attrPos[at] = i
	}
	out := make([]float64, size)
	inv := 1 / float64(size)
	// Start from the constant coefficient (theta_0 = 1)...
	for cell := range out {
		out[cell] = inv
	}
	// ...and add every coefficient supported inside attrs.
	for i := range a.p.coeffs {
		co := &a.p.coeffs[i]
		inside := true
		for _, at := range co.attrs {
			if !seen[at] {
				inside = false
				break
			}
		}
		if !inside {
			continue
		}
		th := a.theta(i)
		if th == 0 {
			continue
		}
		for cell := 0; cell < size; cell++ {
			vals := a.decodeCell(cell, attrs)
			prod := th
			for j, at := range co.attrs {
				prod *= a.p.bases[at][co.levels[j]][vals[attrPos[at]]]
			}
			out[cell] += inv * prod
		}
	}
	return out, nil
}

// decodeCell unpacks a mixed-radix cell index into per-attribute values.
func (a *Aggregator) decodeCell(cell int, attrs []int) []int {
	vals := make([]int, len(attrs))
	for i, at := range attrs {
		r := a.p.cfg.Cardinalities[at]
		vals[i] = cell % r
		cell /= r
	}
	return vals
}

// Estimate satisfies core.Aggregator: beta must be the union of the bit
// groups of some attribute subset (as produced by
// dataset.Categorical.MaskFor); the reconstructed categorical marginal is
// written into the compact bit-group cells, with impossible encodings 0.
func (a *Aggregator) Estimate(beta uint64) (*marginal.Table, error) {
	attrs, err := a.attrsForMask(beta)
	if err != nil {
		return nil, err
	}
	dist, err := a.EstimateCategorical(attrs)
	if err != nil {
		return nil, err
	}
	tab, err := marginal.New(beta)
	if err != nil {
		return nil, err
	}
	for cell, v := range dist {
		vals := a.decodeCell(cell, attrs)
		var full uint64
		for i, at := range attrs {
			full |= uint64(vals[i]) << uint(a.p.offsets[at])
		}
		tab.SetCell(full, v)
	}
	return tab, nil
}

// attrsForMask maps a bit-group union back to the attribute list.
func (a *Aggregator) attrsForMask(beta uint64) ([]int, error) {
	var attrs []int
	var covered uint64
	for i, g := range a.p.groups {
		if beta&g == g {
			attrs = append(attrs, i)
			covered |= g
		}
	}
	if covered != beta {
		return nil, fmt.Errorf("efronstein: mask %b does not align with attribute bit groups", beta)
	}
	return attrs, nil
}

// ExactCategorical computes the exact mixed-radix joint distribution of
// the attribute subset from categorical records, for evaluation.
func ExactCategorical(c *dataset.Categorical, attrs []int) ([]float64, error) {
	if len(c.Records) == 0 {
		return nil, fmt.Errorf("efronstein: no records")
	}
	size := 1
	for _, at := range attrs {
		if at < 0 || at >= len(c.Cardinalities) {
			return nil, fmt.Errorf("efronstein: attribute %d out of range", at)
		}
		size *= c.Cardinalities[at]
	}
	out := make([]float64, size)
	w := 1 / float64(len(c.Records))
	for _, rec := range c.Records {
		idx := 0
		stride := 1
		for _, at := range attrs {
			idx += int(rec[at]) * stride
			stride *= c.Cardinalities[at]
		}
		out[idx] += w
	}
	return out, nil
}
