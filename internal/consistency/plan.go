package consistency

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/marginal"
)

// Plan is the data-independent overlap structure of one table
// collection, precomputed once: every sub-marginal two or more tables
// share, which tables contain it, and the cell-to-subcell index map of
// every (table, shared sub-marginal) pair. Enforce sweeps those
// sub-marginals and the view's sub-k cube reads them through Consensus.
// A deployment's collection never changes across epochs, so an epoch
// refresh reuses one Plan for the life of the process instead of
// re-deriving the structure every build. Building it costs what the
// tables share, not their number of pairs or the width of any one table.
//
// A Plan is immutable after construction and safe for concurrent use;
// Enforce's per-call scratch comes from an internal pool, so the
// steady-state sweep allocates nothing. The sweep order is a fixed
// function of the masks, so equal inputs produce bit-identical outputs,
// which reproducible epoch builds rely on.
type Plan struct {
	betas []uint64 // table masks, in table order

	// subs lists, ascending, every sub-marginal shared by two or more
	// tables; members[si] the tables containing subs[si], in table
	// order; idx[si][mi] maps member mi's cells onto subs[si]'s cells.
	subs    []uint64
	members [][]int
	idx     [][][]int

	maxShared int // largest shared sub-marginal cell count; 0 when no tables overlap
	scratch   sync.Pool
}

// NewPlan precomputes the enforcement structure for tables over the
// given masks (in table order). There must be at least one mask, and all
// must be distinct.
func NewPlan(betas []uint64) (*Plan, error) {
	if len(betas) == 0 {
		return nil, fmt.Errorf("consistency: no tables")
	}
	seen := map[uint64]bool{}
	for _, b := range betas {
		if seen[b] {
			return nil, fmt.Errorf("consistency: duplicate marginal %b", b)
		}
		seen[b] = true
	}
	return newPlan(betas), nil
}

// newPlan builds the structure for any masks, repeated ones included.
func newPlan(betas []uint64) *Plan {
	p := &Plan{betas: append([]uint64(nil), betas...)}
	// The tables containing sub|a are those containing sub that hold a,
	// and every subset of a shared sub-marginal is shared too. So shared
	// sub-marginals grow from the empty one by attributes above their
	// highest: each is reached once, members stay in table order, and no
	// mask two tables do not share is visited.
	members := map[uint64][]int{}
	var grow func(sub uint64, mem []int, from int)
	grow = func(sub uint64, mem []int, from int) {
		var next [64][]int // next[a]: the members holding attribute a
		for _, m := range mem {
			for rest := betas[m] >> from << from; rest != 0; rest &= rest - 1 {
				a := bits.TrailingZeros64(rest)
				next[a] = append(next[a], m)
			}
		}
		for a, nx := range next {
			if len(nx) > 1 {
				members[sub|1<<a] = nx
				grow(sub|1<<a, nx, a+1)
			}
		}
	}
	all := make([]int, len(betas))
	for t := range all {
		all[t] = t
	}
	grow(0, all, 0)

	p.subs = slices.Sorted(maps.Keys(members))
	p.members = make([][]int, len(p.subs))
	p.idx = make([][][]int, len(p.subs))
	cellMaps := map[[2]uint64][]int{} // read-only, so shared by equal keys
	for si, sub := range p.subs {
		mem := members[sub]
		p.maxShared = max(p.maxShared, 1<<bitops.OnesCount(sub))
		p.members[si] = mem
		p.idx[si] = make([][]int, len(mem))
		for mi, m := range mem {
			// The table's width, and sub's bits in its compact cell
			// coordinates: a cell's sub-cell packs exactly those bits.
			key := [2]uint64{uint64(bitops.OnesCount(betas[m])), bitops.Compress(sub, betas[m])}
			if cellMaps[key] == nil {
				mp := make([]int, 1<<key[0])
				for c := range mp {
					mp[c] = int(bitops.Compress(uint64(c), key[1]))
				}
				cellMaps[key] = mp
			}
			p.idx[si][mi] = cellMaps[key]
		}
	}
	p.scratch.New = func() any { return &enforceScratch{make([]float64, p.maxShared), make([]float64, p.maxShared)} }
	return p
}

type enforceScratch struct{ cons, imp []float64 }

// Consensus writes into out the evidence-weighted average of the
// sub-marginal sub that the tables containing it imply — what the sweep
// moves them to — and returns their total weight, leaving out zero when
// that is 0 or no table contains sub. tables and weights must be as
// Enforce takes them (they are not checked here); scratch is as long as
// out.
func (p *Plan) Consensus(sub uint64, tables []*marginal.Table, weights []float64, out, scratch []float64) float64 {
	if si, ok := slices.BinarySearch(p.subs, sub); ok {
		return p.consensus(sub, p.members[si], p.idx[si], tables, weights, out, scratch)
	}
	// No two tables share sub (the view's sub-k cube when d == k): the
	// one table holding it, if any, is reduced without an index map.
	for t, b := range p.betas {
		if bitops.IsSubset(sub, b) {
			return p.consensus(sub, []int{t}, [][]int{nil}, tables, weights, out, scratch)
		}
	}
	return p.consensus(sub, nil, nil, tables, weights, out, scratch)
}

// consensus is Consensus over the given members of sub and their index
// maps. A member with no weight is skipped: with finite cells it would
// add only zeros.
func (p *Plan) consensus(sub uint64, members []int, idx [][]int, tables []*marginal.Table, weights []float64, cons, imp []float64) float64 {
	clear(cons)
	var totalW float64
	for mi, m := range members {
		w := 1.0
		if weights != nil {
			w = weights[m]
		}
		if w <= 0 {
			continue
		}
		implied(tables[m], sub, idx[mi], imp)
		for c := range cons {
			// Two statements, not cons[c] += imp[c]*w: the compiler may
			// fuse a*b+c into one FMA, which rounds once where this
			// rounds twice, and whether it fuses depends on the platform.
			v := imp[c] * w
			cons[c] += v
		}
		totalW += w
	}
	if totalW == 0 {
		return 0
	}
	inv := 1 / totalW
	for c := range cons {
		cons[c] *= inv
	}
	return totalW
}

// implied writes into imp the sub-marginal sub that table t implies,
// summing cells in table order (as MarginalizeTo does): through mp, the
// plan's map of t's cells onto sub's, or computing each cell's sub-cell
// when mp is nil.
func implied(t *marginal.Table, sub uint64, mp []int, imp []float64) {
	clear(imp)
	if mp == nil {
		local := bitops.Compress(sub, t.Beta)
		for c, v := range t.Cells {
			imp[bitops.Compress(uint64(c), local)] += v
		}
		return
	}
	for c, v := range t.Cells {
		imp[mp[c]] += v
	}
}

// Enforce adjusts the tables in place so shared sub-marginals agree.
// tables must match the plan's masks in order and hold 2^|Beta| cells
// each; weights (one per table, or nil for uniform) set the relative
// trust in each table's evidence, e.g. per-marginal user counts from a
// marginal-view protocol.
func (p *Plan) Enforce(tables []*marginal.Table, weights []float64, opts Options) error {
	opts = opts.withDefaults()
	if len(tables) != len(p.betas) {
		return fmt.Errorf("consistency: %d tables for a plan over %d", len(tables), len(p.betas))
	}
	if weights != nil && len(weights) != len(tables) {
		return fmt.Errorf("consistency: %d weights for %d tables", len(weights), len(tables))
	}
	for i, t := range tables {
		if err := checkTable(i, t); err != nil {
			return err
		}
		if t.Beta != p.betas[i] {
			return fmt.Errorf("consistency: table %d is over %b, plan expects %b", i, t.Beta, p.betas[i])
		}
	}
	if p.maxShared == 0 {
		return nil // nothing overlaps; vacuously consistent
	}
	sc := p.scratch.Get().(*enforceScratch)
	defer p.scratch.Put(sc)
	for round := 0; round < opts.Rounds; round++ {
		for si, sub := range p.subs {
			size := 1 << uint(bitops.OnesCount(sub))
			cons, imp := sc.cons[:size], sc.imp[:size]
			if p.consensus(sub, p.members[si], p.idx[si], tables, weights, cons, imp) == 0 {
				continue
			}
			// Shift each member's cells so its implied sub-marginal
			// equals the consensus: spread each sub-cell's deficit
			// uniformly over the table cells mapping to it.
			for mi, m := range p.members[si] {
				mp, cells := p.idx[si][mi], tables[m].Cells
				implied(tables[m], sub, mp, imp)
				group := float64(len(cells) / size)
				for c := range cells {
					cells[c] += (cons[mp[c]] - imp[mp[c]]) / group
				}
			}
		}
	}
	return nil
}
