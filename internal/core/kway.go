package core

import (
	"fmt"
	"sync"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/hadamard"
	"ldpmarginals/internal/marginal"
)

// maskCache memoizes bitops.MasksWithExactlyK per (d, k): the collection
// C is identical for every build of a deployment's lifetime, so there is
// no reason to re-enumerate (and re-allocate) it once per epoch. Cached
// slices are shared — callers must treat them as read-only.
var maskCache sync.Map // uint64(d)<<8 | uint64(k) -> []uint64

// KWayMasks returns the memoized mask list of the C(d,k) k-way
// collection, in the numeric order of bitops.MasksWithExactlyK. The
// returned slice is shared and must not be mutated.
func KWayMasks(d, k int) []uint64 {
	key := uint64(d)<<8 | uint64(k)
	if m, ok := maskCache.Load(key); ok {
		return m.([]uint64)
	}
	m, _ := maskCache.LoadOrStore(key, bitops.MasksWithExactlyK(d, k))
	return m.([]uint64)
}

// KWayArena is a reusable reconstruction workspace: one pre-allocated
// table per mask of the C(d,k) collection plus the per-table evidence.
// An epoch refresh reconstructs into the same arena every time, so the
// steady-state build allocates nothing. Not safe for concurrent use.
type KWayArena struct {
	// Masks is the memoized collection mask list (read-only, shared).
	Masks []uint64
	// Tables holds one table per mask, reused across builds.
	Tables []*marginal.Table
	// Users holds the number of reports behind each table of the latest
	// build: the per-marginal sample count for the marginal-view
	// protocols (each user contributes to exactly one table), the total
	// report count for InpRR, InpPS, InpHT and InpHTCMS (every user
	// contributes to every table), 0 for an empty aggregator.
	Users []int
}

// NewKWayArena allocates the reconstruction arena of a deployment.
func NewKWayArena(cfg Config) (*KWayArena, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	masks := KWayMasks(cfg.D, cfg.K)
	a := &KWayArena{
		Masks:  masks,
		Tables: make([]*marginal.Table, len(masks)),
		Users:  make([]int, len(masks)),
	}
	cells := make([]float64, len(masks)<<uint(cfg.K))
	tabs := make([]marginal.Table, len(masks))
	for i, m := range masks {
		tabs[i] = marginal.Table{Beta: m, Cells: cells[i<<uint(cfg.K) : (i+1)<<uint(cfg.K)]}
		a.Tables[i] = &tabs[i]
	}
	return a, nil
}

// AllKWayTablesInto reconstructs every k-way marginal of the collection
// from one aggregator snapshot into the arena, in the numeric mask order
// of KWayMasks, through the aggregator's own Folder.KWayTablesInto, on
// the calling goroutine. Each table is a deterministic function of the
// aggregator state, so equal snapshots give bit-identical arenas. The
// aggregator must not be written concurrently (use a private snapshot);
// an empty one yields uniform tables with Users = 0, so a deployment can
// publish an epoch before any report arrives.
//
// The bool is ignored: it used to select the linear path, which is now
// the only one, and stays until bench/ (frozen, passes true) drops it.
func AllKWayTablesInto(agg Aggregator, a *KWayArena, _ bool) error {
	if agg.N() == 0 {
		for i, t := range a.Tables {
			uniform(t.Cells)
			a.Users[i] = 0
		}
		return nil
	}
	f, ok := agg.(Folder)
	if !ok {
		return fmt.Errorf("core: %T cannot reconstruct a k-way collection", agg)
	}
	return f.KWayTablesInto(a)
}

// reconstructFrom fills every table of the arena, in mask order, through
// the one subcube kernel of Lemma 3.7, hadamard.ReconstructMarginalInto:
// gather the 2^k coefficients alpha ⪯ beta from src, one inverse
// transform. unbias, if not nil, then rewrites each table's cells in
// place, and every table gets users as its evidence.
func (a *KWayArena) reconstructFrom(src hadamard.CoefficientSource, users int, unbias func(cells []float64)) {
	for i, beta := range a.Masks {
		cells := a.Tables[i].Cells
		hadamard.ReconstructMarginalInto(cells, src, beta)
		if unbias != nil {
			unbias(cells)
		}
		a.Users[i] = users
	}
}

// ReconstructDomain fills every table of the arena from v, a vector over
// the full 2^d domain: the marginal operator is linear, so with
// W = WHT(v) the sums of v over the cells of any marginal beta are the
// inverse transform of W's subcube alpha ⪯ beta. v is transformed in
// place, once (O(d 2^d)), and each table then costs O(k 2^k) instead of
// a 2^d scan; unbias and users are as for reconstructFrom.
func (a *KWayArena) ReconstructDomain(v []float64, users int, unbias func(cells []float64)) error {
	if err := hadamard.WHT(v); err != nil {
		return err
	}
	a.reconstructFrom(denseSource(v), users, unbias)
	return nil
}

// denseSource reads the coefficients of a full-domain transform held
// densely. Its alpha = 0 coefficient is the vector's total mass, so the
// subcube kernel yields cell sums, which the caller's unbias normalizes.
type denseSource []float64

func (v denseSource) ScaledCoefficient(alpha uint64) float64 { return v[alpha] }

// uniform fills cells with the uniform distribution.
func uniform(cells []float64) {
	u := 1 / float64(len(cells))
	for i := range cells {
		cells[i] = u
	}
}
