// Package consistency post-processes a collection of estimated marginal
// tables so that overlapping marginals agree — the "consistency"
// property Barak et al. pursue in the centralized model, applied here to
// LDP estimates. Independently-noised tables generally disagree on
// shared sub-marginals (e.g. the 1-way marginal of attribute a implied
// by C_{ab} differs from the one implied by C_{ac}); analysts and
// downstream model fitters expect a single coherent answer.
//
// The algorithm is iterative proportional-style additive correction:
// for every shared sub-marginal, compute the precision-weighted
// consensus across all tables containing it, then shift each table's
// cells uniformly within each sub-cell group to match the consensus.
// The shift preserves each table's total mass and its internal
// higher-order structure; a few sweeps converge to mutual agreement.
// Optionally the result is projected to the probability simplex.
package consistency

import (
	"fmt"
	"math"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/marginal"
)

// Options controls the enforcement sweep.
type Options struct {
	// Rounds is the number of full sweeps over shared sub-marginals
	// (default 3; one round suffices when tables share only one
	// sub-marginal each).
	Rounds int
	// Project projects every table to the probability simplex after the
	// sweeps, producing genuine distributions.
	Project bool
}

func (o Options) withDefaults() Options {
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	return o
}

// Enforce adjusts the tables in place so shared sub-marginals agree. All
// tables must be over distinct attribute masks and hold 2^|Beta| cells;
// weights (one per table, or nil for uniform) set the relative trust in
// each table's evidence, e.g. per-marginal user counts from a
// marginal-view protocol.
//
// Enforce builds a throwaway Plan on every call. Callers that sweep the
// same collection repeatedly (the materialized-view refresh loop) build
// the Plan once with NewPlan and call Plan.Enforce, which is
// bit-identical and allocation-free; the sweep order is a fixed function
// of the masks either way, so equal inputs produce bit-identical outputs
// — which the view layer relies on for reproducible epoch rebuilds.
func Enforce(tables []*marginal.Table, weights []float64, opts Options) error {
	if len(tables) == 0 {
		return fmt.Errorf("consistency: no tables")
	}
	betas, err := masksOf(tables)
	if err != nil {
		return err
	}
	plan, err := NewPlan(betas)
	if err != nil {
		return err
	}
	return plan.Enforce(tables, weights, opts)
}

// MaxDisagreement measures the largest L-infinity gap between the
// sub-marginals implied by any two tables on any shared attribute set —
// 0 means fully consistent. Useful in tests and as a diagnostic. Tables
// may repeat a mask.
func MaxDisagreement(tables []*marginal.Table) (float64, error) {
	betas, err := masksOf(tables)
	if err != nil {
		return 0, err
	}
	p := newPlan(betas)
	hi, lo, imp := make([]float64, p.maxShared), make([]float64, p.maxShared), make([]float64, p.maxShared)
	var worst float64
	for si, sub := range p.subs {
		size := 1 << uint(bitops.OnesCount(sub))
		hi, lo, imp := hi[:size], lo[:size], imp[:size]
		for c := range hi {
			hi[c], lo[c] = math.Inf(-1), math.Inf(1)
		}
		for mi, m := range p.members[si] {
			implied(tables[m], sub, p.idx[si][mi], imp)
			for c, v := range imp {
				// Comparisons, not max/min: a NaN must drop out here as it
				// drops out of every pair's comparison in a pairwise walk.
				if v > hi[c] {
					hi[c] = v
				}
				if v < lo[c] {
					lo[c] = v
				}
			}
		}
		// The widest pair's rounded difference is the largest of all
		// pairs' (rounding is monotone), so this equals a pairwise walk.
		for c := range hi {
			if d := hi[c] - lo[c]; d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

// masksOf checks every table and returns their masks in table order.
func masksOf(tables []*marginal.Table) ([]uint64, error) {
	betas := make([]uint64, len(tables))
	for i, t := range tables {
		if err := checkTable(i, t); err != nil {
			return nil, err
		}
		betas[i] = t.Beta
	}
	return betas, nil
}

// checkTable refuses a nil table or one whose cell count is not
// 2^|Beta|, naming it by its position.
func checkTable(i int, t *marginal.Table) error {
	if t == nil {
		return fmt.Errorf("consistency: table %d is nil", i)
	}
	if k := t.K(); k > marginal.MaxTableAttributes || len(t.Cells) != 1<<uint(k) {
		return fmt.Errorf("consistency: table %d over %b has %d cells, want 2^%d", i, t.Beta, len(t.Cells), k)
	}
	return nil
}
