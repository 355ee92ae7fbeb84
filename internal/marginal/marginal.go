// Package marginal implements the marginal operator C_beta of Definition
// 3.2 and the marginal Table type exchanged between protocols, baselines,
// and applications.
//
// A marginal over the attribute subset beta (a bitmask over d attributes,
// |beta| = k) is stored as a dense vector of 2^k cells indexed compactly:
// cell c holds the (estimated) probability mass of the full-domain indices
// eta with bitops.Compress(eta, beta) == c. Tables computed from exact
// data are genuine probability distributions; tables estimated under LDP
// are unbiased but may have negative cells until post-processed.
package marginal

import (
	"fmt"
	"runtime"
	"sync"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/vec"
)

// MaxTableAttributes bounds |beta|: a table materializes 2^k cells.
const MaxTableAttributes = 26

// Table is a (possibly estimated) k-way marginal over attribute set Beta.
type Table struct {
	// Beta identifies the attribute subset of this marginal.
	Beta uint64
	// Cells holds the 2^k compactly-indexed cell values.
	Cells []float64
}

// New returns a zero-valued table over beta.
func New(beta uint64) (*Table, error) {
	k := bitops.OnesCount(beta)
	if k > MaxTableAttributes {
		return nil, fmt.Errorf("marginal: |beta| = %d exceeds limit %d", k, MaxTableAttributes)
	}
	return &Table{Beta: beta, Cells: make([]float64, 1<<uint(k))}, nil
}

// Uniform returns the uniform marginal over beta.
func Uniform(beta uint64) (*Table, error) {
	t, err := New(beta)
	if err != nil {
		return nil, err
	}
	copy(t.Cells, vec.Uniform(len(t.Cells)))
	return t, nil
}

// FromCells wraps an existing cell vector; len(cells) must be 2^|beta|.
func FromCells(beta uint64, cells []float64) (*Table, error) {
	k := bitops.OnesCount(beta)
	if len(cells) != 1<<uint(k) {
		return nil, fmt.Errorf("marginal: beta has %d attributes but %d cells given", k, len(cells))
	}
	return &Table{Beta: beta, Cells: cells}, nil
}

// K returns the number of attributes in this marginal.
func (t *Table) K() int { return bitops.OnesCount(t.Beta) }

// Cell returns the value at the full-domain index gamma (only the bits of
// gamma within Beta matter, matching the paper's indexing convention).
func (t *Table) Cell(gamma uint64) float64 {
	return t.Cells[bitops.Compress(gamma, t.Beta)]
}

// SetCell assigns the value at full-domain index gamma.
func (t *Table) SetCell(gamma uint64, v float64) {
	t.Cells[bitops.Compress(gamma, t.Beta)] = v
}

// Clone returns a deep copy of t.
func (t *Table) Clone() *Table {
	return &Table{Beta: t.Beta, Cells: vec.Clone(t.Cells)}
}

// TVDistance returns the total variation distance to another table over
// the same beta (Definition 3.4).
func (t *Table) TVDistance(o *Table) (float64, error) {
	if t.Beta != o.Beta {
		return 0, fmt.Errorf("marginal: TV between different marginals %b and %b", t.Beta, o.Beta)
	}
	return vec.TVDist(t.Cells, o.Cells), nil
}

// ProjectToSimplex post-processes the table in place into a valid
// probability distribution (non-negative cells summing to one) and
// returns t. Applications that interpret cells as probabilities (chi^2,
// mutual information, model fitting) call this first.
func (t *Table) ProjectToSimplex() *Table {
	vec.ProjectToSimplex(t.Cells)
	return t
}

// MarginalizeTo sums out the attributes of t not present in subBeta,
// producing the marginal over subBeta. subBeta must be a subset of
// t.Beta.
func (t *Table) MarginalizeTo(subBeta uint64) (*Table, error) {
	if !bitops.IsSubset(subBeta, t.Beta) {
		return nil, fmt.Errorf("marginal: %b is not a subset of %b", subBeta, t.Beta)
	}
	out, err := New(subBeta)
	if err != nil {
		return nil, err
	}
	for c, v := range t.Cells {
		full := bitops.Expand(uint64(c), t.Beta)
		out.Cells[bitops.Compress(full, subBeta)] += v
	}
	return out, nil
}

// Scale multiplies all cells by f in place and returns t.
func (t *Table) Scale(f float64) *Table {
	vec.Scale(t.Cells, f)
	return t
}

// Add accumulates o into t (cells must align). Used to average estimates.
func (t *Table) Add(o *Table) error {
	if t.Beta != o.Beta {
		return fmt.Errorf("marginal: adding mismatched marginals %b and %b", t.Beta, o.Beta)
	}
	vec.Add(t.Cells, o.Cells)
	return nil
}

// FromDistribution computes the exact marginal C_beta(t) of a full
// distribution over 2^d cells (equation 3 of the paper).
func FromDistribution(dist []float64, d int, beta uint64) (*Table, error) {
	if len(dist) != 1<<uint(d) {
		return nil, fmt.Errorf("marginal: distribution has %d cells, want 2^%d", len(dist), d)
	}
	if beta >= 1<<uint(d) {
		return nil, fmt.Errorf("marginal: beta %b outside %d attributes", beta, d)
	}
	out, err := New(beta)
	if err != nil {
		return nil, err
	}
	for eta, v := range dist {
		out.Cells[bitops.Compress(uint64(eta), beta)] += v
	}
	return out, nil
}

// parallelRecordThreshold is the record count from which FromRecords
// counts in parallel. Cell counts are integers (exact in float64 up to
// 2^53), so partial histograms merge bit-identically in any grouping —
// parallelism never changes the result.
const parallelRecordThreshold = 1 << 16

// FromRecords computes the exact empirical marginal of a record stream
// without materializing the 2^d distribution, enabling exact answers for
// large d. Records are attribute bitmasks. Large streams are counted in
// parallel across goroutines; the result is identical either way.
func FromRecords(records []uint64, beta uint64) (*Table, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("marginal: no records")
	}
	out, err := New(beta)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	if len(records) < parallelRecordThreshold || workers == 1 {
		for _, rec := range records {
			out.Cells[bitops.Compress(rec, beta)]++
		}
	} else {
		chunk := (len(records) + workers - 1) / workers
		partials := make([][]float64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, min((w+1)*chunk, len(records))
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				part := make([]float64, len(out.Cells))
				for _, rec := range records[lo:hi] {
					part[bitops.Compress(rec, beta)]++
				}
				partials[w] = part
			}(w, lo, hi)
		}
		wg.Wait()
		for _, part := range partials {
			if part == nil {
				continue
			}
			vec.Add(out.Cells, part)
		}
	}
	out.Scale(1 / float64(len(records)))
	return out, nil
}

// CellOfRecord returns the compact cell index that record rec occupies in
// the marginal beta. A single user's marginal is one-hot at this index
// (Section 3.2).
func CellOfRecord(rec, beta uint64) uint64 {
	return bitops.Compress(rec, beta)
}

// AllKWay enumerates the attribute masks of all C(d,k) k-way marginals.
func AllKWay(d, k int) []uint64 { return bitops.MasksWithExactlyK(d, k) }

// Estimator produces a marginal estimate for an attribute mask. Both the
// core protocols' aggregators and the baselines satisfy this.
type Estimator interface {
	Estimate(beta uint64) (*Table, error)
}

// MeanTV evaluates an estimator against exact marginals computed from the
// record stream, returning the mean total variation distance across the
// given attribute masks. This is the quality metric of every accuracy
// figure in the paper.
func MeanTV(est Estimator, records []uint64, betas []uint64) (float64, error) {
	if len(betas) == 0 {
		return 0, fmt.Errorf("marginal: no marginals to evaluate")
	}
	var total float64
	for _, beta := range betas {
		got, err := est.Estimate(beta)
		if err != nil {
			return 0, fmt.Errorf("estimating %b: %w", beta, err)
		}
		want, err := FromRecords(records, beta)
		if err != nil {
			return 0, err
		}
		tv, err := got.TVDistance(want)
		if err != nil {
			return 0, err
		}
		total += tv
	}
	return total / float64(len(betas)), nil
}
