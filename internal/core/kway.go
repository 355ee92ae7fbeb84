package core

import (
	"fmt"
	"sync"

	"ldpmarginals/internal/bitops"
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

// kWayIntoReconstructor is implemented by the marginal-view
// aggregators: reconstruct the table at position pos of the collection
// from that marginal's own accumulator into the caller's table
// (dst.Beta already set to the position's mask), returning its realized
// per-marginal user count. Estimate reconstructs through the same
// kWayInto (margIndex.estimate), averaging supersets for sub-k masks.
type kWayIntoReconstructor interface {
	kWayInto(pos int, dst *marginal.Table) (int, error)
}

// estimateIntoReconstructor is implemented by InpHT, whose every report
// informs every table: reconstruct the marginal over dst.Beta into dst.
// Arithmetic identical to Estimate.
type estimateIntoReconstructor interface {
	estimateInto(dst *marginal.Table) error
}

// linearKWayReconstructor is implemented by the input-view protocols
// InpRR and InpPS: derive every k-way table's unnormalized cell sums
// from ONE full-domain Walsh-Hadamard transform of the counter vector
// (O(d 2^d) total) instead of one 2^d-cell scan per table
// (O(C(d,k) 2^d)), then apply the protocol's affine unbiasing per cell.
// The result agrees with Estimate's per-table scan up to floating-point
// summation order (within ~1e-12 TV at the supported sizes); the scan
// remains the path for a single arbitrary mask and the reference
// TestLinearReconstructionMatchesEstimate holds this kernel against.
type linearKWayReconstructor interface {
	reconstructKWayLinear(masks []uint64, tables []*marginal.Table, users []int) error
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
	// report count for the input-view protocols (every user contributes
	// to every table), 0 for an empty aggregator.
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
// of KWayMasks. InpRR and InpPS take the single-transform linear path
// (see linearKWayReconstructor); the other protocols reconstruct table
// by table across goroutines. Each table is a deterministic function of
// the aggregator state, so equal snapshots give bit-identical arenas
// regardless of GOMAXPROCS. The aggregator must not be written
// concurrently (use a private snapshot); an empty one yields uniform
// tables with Users = 0, so a deployment can publish an epoch before
// any report arrives.
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
	if lr, ok := agg.(linearKWayReconstructor); ok {
		return lr.reconstructKWayLinear(a.Masks, a.Tables, a.Users)
	}
	errs := make([]error, len(a.Masks))
	switch rec := agg.(type) {
	case kWayIntoReconstructor:
		parallelFor(len(a.Masks), func(i int) {
			users, err := rec.kWayInto(i, a.Tables[i])
			if err != nil {
				errs[i] = err
				return
			}
			a.Users[i] = users
		})
	case estimateIntoReconstructor:
		n := agg.N()
		parallelFor(len(a.Masks), func(i int) {
			if err := rec.estimateInto(a.Tables[i]); err != nil {
				errs[i] = err
				return
			}
			a.Users[i] = n
		})
	default:
		// Generic fallback (out-of-package aggregators): allocate via
		// Estimate and copy into the arena.
		n := agg.N()
		parallelFor(len(a.Masks), func(i int) {
			t, err := agg.Estimate(a.Masks[i])
			if err != nil {
				errs[i] = err
				return
			}
			copy(a.Tables[i].Cells, t.Cells)
			a.Users[i] = n
		})
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: reconstructing %b: %w", a.Masks[i], err)
		}
	}
	return nil
}

// uniform fills cells with the uniform distribution.
func uniform(cells []float64) {
	u := 1 / float64(len(cells))
	for i := range cells {
		cells[i] = u
	}
}
