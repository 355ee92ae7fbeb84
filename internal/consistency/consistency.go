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
// A Plan holds a collection's overlap structure and runs the sweep.
package consistency

import (
	"fmt"

	"ldpmarginals/internal/marginal"
)

// Options controls the enforcement sweep.
type Options struct {
	// Rounds is the number of full sweeps over shared sub-marginals
	// (default 3; one round suffices when tables share only one
	// sub-marginal each).
	Rounds int
}

func (o Options) withDefaults() Options {
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	return o
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
