// Package consistency post-processes a collection of estimated marginal
// tables so that overlapping marginals agree — the "consistency"
// property Barak et al. pursue in the centralized model, applied here to
// LDP estimates: independently-noised tables disagree on shared
// sub-marginals (P(a) implied by C_{ab} differs from P(a) implied by
// C_{ac}), and analysts expect one coherent answer.
//
// In the Walsh–Hadamard basis a sub-marginal two tables share is a set
// of coefficients they share, so the evidence-weighted least-squares
// projection onto the consistent collections has a closed form:
// transform every table, set each shared coefficient to the weighted
// mean of its holders' values, and transform back. What no other table
// holds, a table's own higher-order structure, stays. Agree alternates
// that projection with each table's projection onto the probability
// simplex, with extrapolated steps, until the two agree.
package consistency

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/hadamard"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/vec"
)

// Options is empty: Enforce has nothing to tune. It stays for the
// benchmark's ledger, which passes Options{}.
type Options struct{}

// Plan is the overlap structure of one table collection: a dense id per
// sub-marginal two or more tables share, plus one for the empty mask
// (the total mass) per group of tables that shared attributes link, and
// per table the transform coefficients it holds of them. It costs what
// the tables share, not their pairs or widths; a table that shares
// nothing is left out. It is immutable and safe for concurrent use; its
// projections work in the caller's Scratch and sum in table order, so
// equal inputs give bit-identical outputs.
type Plan struct {
	betas   []uint64  // table masks, in table order
	masks   []uint64  // masks[id]: the sub-marginal coefficient id belongs to
	refs    []coefRef // table t's shared coefficients are refs[off[t]:off[t+1]]
	off     []int
	slab    []int // table t's transform is Scratch.coef[slab[t]:slab[t+1]], empty if it shares nothing
	cellOff []int // sub-marginal id's cells are Scratch.hi[cellOff[id]:cellOff[id+1]]
}

// coefRef is a table's shared coefficient: its transform index and id.
type coefRef struct{ local, id uint32 }

// Scratch is the working memory of a Plan's projections; reused by one
// caller at a time, it makes them allocate nothing. After Means or
// Project, Mean[id] is the weighted mean of coefficient id and Weight[id]
// the weight behind it (0: no table holding it has any).
type Scratch struct {
	Mean, Weight             []float64
	coef, x, hi, lo, implied []float64
}

// NewPlan precomputes the projection structure for tables over the
// given masks (in table order). There must be at least one mask, and all
// must be distinct.
func NewPlan(betas []uint64) (*Plan, error) {
	if len(betas) == 0 {
		return nil, fmt.Errorf("consistency: no tables")
	}
	if sorted := slices.Sorted(slices.Values(betas)); len(slices.Compact(sorted)) < len(betas) {
		return nil, fmt.Errorf("consistency: a marginal appears twice among the %d", len(betas))
	}
	return newPlan(betas), nil
}

// newPlan builds the structure for any masks, repeated ones included.
func newPlan(betas []uint64) *Plan {
	p := &Plan{betas: slices.Clone(betas), off: make([]int, len(betas)+1), slab: make([]int, len(betas)+1)}
	refs := make([][]coefRef, len(betas))
	all, group := make([]int, len(betas)), make([]int, len(betas)) // group: union-find parents
	for t := range all {
		all[t], group[t] = t, t
	}
	root := func(t int) int {
		for group[t] != t {
			t = group[t]
		}
		return t
	}
	// The tables containing sub|a are those containing sub that hold a,
	// and every subset of a shared sub-marginal is shared too. So shared
	// sub-marginals grow from the empty one by attributes above their
	// highest: each is reached once, members stay in table order, and no
	// mask two tables do not share is visited.
	var grow func(sub uint64, mem []int, from int)
	grow = func(sub uint64, mem []int, from int) {
		var next [64][]int // next[a]: the members holding attribute a
		for _, m := range mem {
			for rest := betas[m] >> from << from; rest != 0; rest &= rest - 1 {
				next[bits.TrailingZeros64(rest)] = append(next[bits.TrailingZeros64(rest)], m)
			}
		}
		for a, nx := range next {
			if len(nx) > 1 {
				id := uint32(len(p.masks))
				p.masks = append(p.masks, sub|1<<a)
				for _, m := range nx {
					refs[m] = append(refs[m], coefRef{uint32(bitops.Compress(sub|1<<a, betas[m])), id})
					group[root(m)] = root(nx[0])
				}
				grow(sub|1<<a, nx, a+1)
			}
		}
	}
	grow(0, all, 0)
	emptyID := map[int]uint32{} // group root -> id of the group's empty mask
	for t, rs := range refs {
		if len(rs) > 0 { // t shares something, so its group's total too
			if _, ok := emptyID[root(t)]; !ok {
				emptyID[root(t)] = uint32(len(p.masks))
				p.masks = append(p.masks, 0)
			}
			rs = append(rs, coefRef{0, emptyID[root(t)]})
			p.slab[t+1] = 1 << bitops.OnesCount(betas[t])
		}
		p.refs = append(p.refs, rs...)
		p.off[t+1], p.slab[t+1] = len(p.refs), p.slab[t]+p.slab[t+1]
	}
	p.cellOff = make([]int, len(p.masks)+1)
	for id, m := range p.masks {
		p.cellOff[id+1] = p.cellOff[id] + 1<<bitops.OnesCount(m)
	}
	return p
}

// NewScratch returns working memory for the plan's projections.
func (p *Plan) NewScratch() *Scratch {
	ids, cells := len(p.masks), p.cellOff[len(p.masks)]
	coefs := p.slab[len(p.betas)]
	return &Scratch{Mean: make([]float64, ids), Weight: make([]float64, ids), coef: make([]float64, coefs), x: make([]float64, coefs),
		hi: make([]float64, cells), lo: make([]float64, cells), implied: make([]float64, cells)}
}

// ID returns the id of table t's coefficient of mask, if t shares it.
func (p *Plan) ID(t int, mask uint64) (int, bool) {
	for _, r := range p.refs[p.off[t]:p.off[t+1]] {
		if bitops.IsSubset(mask, p.betas[t]) && r.local == uint32(bitops.Compress(mask, p.betas[t])) {
			return int(r.id), true
		}
	}
	return 0, false
}

// Means writes the tables' Walsh–Hadamard transforms into s and sets
// s.Mean and s.Weight. The tables must match the plan's masks in order,
// with 2^|Beta| cells each; weights (one per table, or nil for uniform)
// set the trust in each table's evidence. Enforce checks both. A table
// with no weight adds nothing, so its cells may be anything, NaN
// included.
func (p *Plan) Means(tables []*marginal.Table, weights []float64, s *Scratch) {
	clear(s.Mean)
	clear(s.Weight)
	for t, tab := range tables {
		c := s.coef[p.slab[t]:p.slab[t+1]]
		if len(c) == 0 {
			continue
		}
		wht(c, tab.Cells, 1)
		w := 1.0
		if weights != nil {
			w = weights[t]
		}
		for _, r := range p.refs[p.off[t]:p.off[t+1]] {
			if w > 0 { // the conversion rounds the product: no FMA, on any platform
				s.Mean[r.id] += float64(c[r.local] * w)
				s.Weight[r.id] += w
			}
		}
	}
	for id, w := range s.Weight {
		if w > 0 {
			s.Mean[id] /= w
		}
	}
}

// Project moves the tables in place to the nearest consistent collection
// in evidence-weighted least squares, the limit of the additive sweeps
// Enforce once ran: each shared coefficient with weight behind it
// becomes its weighted mean. Tables and weights are as Means takes them.
// A table none of whose shared coefficients has weight keeps its cells
// bit for bit.
func (p *Plan) Project(tables []*marginal.Table, weights []float64, s *Scratch) {
	p.Means(tables, weights, s)
	for t, tab := range tables {
		if _, touched := p.toMeans(t, s); touched {
			wht(tab.Cells, s.coef[p.slab[t]:p.slab[t+1]], 1/float64(p.slab[t+1]-p.slab[t]))
		}
	}
}

// toMeans sets table t's shared coefficients in s that have weight
// behind them to their means, and returns the largest change (a NaN
// drops out) and whether there was any such coefficient.
func (p *Plan) toMeans(t int, s *Scratch) (moved float64, touched bool) {
	c := s.coef[p.slab[t]:p.slab[t+1]]
	for _, r := range p.refs[p.off[t]:p.off[t+1]] {
		if s.Weight[r.id] > 0 {
			if d := math.Abs(c[r.local] - s.Mean[r.id]); d > moved {
				moved = d
			}
			c[r.local], touched = s.Mean[r.id], true
		}
	}
	return moved, touched
}

// Bounds of Agree: the rounds it runs at most, the largest coefficient
// change of a consistency projection that ends them, and the factor on
// each extrapolated step.
const (
	maxRounds    = 128
	agreementTol = 1e-9
	relaxation   = 1.8
)

// Agree makes the tables agreeing distributions and returns the rounds
// it ran; tables and weights are as Means takes them. Round 1 is
// Project, then the simplex projection of every table. Each later round
// projects the simplex output y onto the consistent collections, giving
// z. Once that moves no coefficient of a table with weight by more than
// agreementTol, the tables become z's simplex projection and the rounds
// end. Otherwise the consistent point x that y came from moves along
// z-x, past z, to the boundary of the half-space {v : <x-y, v-y> <= 0},
// which holds every collection of distributions, and the tables become
// its simplex projection: the extrapolation of Bauschke, Combettes and
// Kruk for affine-convex feasibility, the step scaled by relaxation but
// kept short enough to land no farther than z from any consistent
// collection of distributions. So in the evidence-weighted norm of the
// transforms no round moves the tables away from such a collection, the
// true marginals included. x is kept as transforms, whose shared
// coefficients stay equal bit for bit. A table without weight follows
// the others, and nothing makes it agree with them.
func (p *Plan) Agree(tables []*marginal.Table, weights []float64, s *Scratch) int {
	p.Project(tables, weights, s)
	copy(s.x, s.coef)
	for _, t := range tables {
		vec.ProjectToSimplex(t.Cells)
	}
	for rounds := 2; rounds <= maxRounds; rounds++ {
		p.Means(tables, weights, s)
		var moved, xy, xz float64 // ||x-y||^2, ||x-z||^2
		for t := range tables {
			c, x, w := s.coef[p.slab[t]:p.slab[t+1]], s.x[p.slab[t]:p.slab[t+1]], 1.0
			if weights != nil {
				w = weights[t]
			}
			xy += dist2(w, x, c)
			if m, _ := p.toMeans(t, s); w > 0 {
				moved = max(moved, m)
			}
			xz += dist2(w, x, c)
		}
		step := 1.0 // the last round lands on z, as does one whose ratio is infinite
		if t := xy / xz; t > 1 && t <= math.MaxFloat64 && moved > agreementTol {
			step = t * min(relaxation, 2-1/t)
		}
		for t, tab := range tables {
			c, x := s.coef[p.slab[t]:p.slab[t+1]], s.x[p.slab[t]:p.slab[t+1]]
			if len(x) == 0 {
				continue
			}
			for i := range x {
				x[i] = c[i] + (step-1)*(c[i]-x[i])
			}
			wht(tab.Cells, x, 1/float64(len(x)))
			vec.ProjectToSimplex(tab.Cells)
		}
		if !(moved > agreementTol) {
			return rounds
		}
	}
	return maxRounds
}

// Enforce checks the tables and weights, then makes the tables agree on
// every shared sub-marginal with one Project into fresh scratch.
func (p *Plan) Enforce(tables []*marginal.Table, weights []float64, _ Options) error {
	if len(tables) != len(p.betas) || weights != nil && len(weights) != len(tables) {
		return fmt.Errorf("consistency: %d tables and %d weights for a plan over %d tables", len(tables), len(weights), len(p.betas))
	}
	for i, t := range tables {
		if err := checkTable(i, t); err != nil {
			return err
		}
		if t.Beta != p.betas[i] {
			return fmt.Errorf("consistency: table %d is over %b, plan expects %b", i, t.Beta, p.betas[i])
		}
	}
	p.Project(tables, weights, p.NewScratch())
	return nil
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

// MaxDisagreement returns the largest gap between the cells of the
// sub-marginals two tables imply on a nonempty attribute set they
// share; 0 is a consistent collection. It reads the transforms the
// latest Means over the same tables left in s.
func (p *Plan) MaxDisagreement(s *Scratch) float64 {
	for i := range s.hi {
		s.hi[i], s.lo[i] = math.Inf(-1), math.Inf(1)
	}
	for t := range p.betas {
		c := s.coef[p.slab[t]:p.slab[t+1]]
		for _, r := range p.refs[p.off[t]:p.off[t+1]] {
			if r.local == 0 {
				continue // the total mass is no sub-marginal
			}
			// The implied sub-marginal's transform is the table's
			// coefficients of its sub-masks, in ascending order.
			at := p.cellOff[r.id]
			m := s.implied[at:p.cellOff[r.id+1]]
			for j, a := 0, uint32(0); j < len(m); j, a = j+1, (a-r.local)&r.local {
				m[j] = c[a]
			}
			wht(m, m, 1/float64(len(m)))
			for g, v := range m {
				// Comparisons, not max/min: a NaN drops out.
				if v > s.hi[at+g] {
					s.hi[at+g] = v
				}
				if v < s.lo[at+g] {
					s.lo[at+g] = v
				}
			}
		}
	}
	var worst float64
	for g := range s.hi {
		if d := s.hi[g] - s.lo[g]; d > worst { // -Inf where no table wrote
			worst = d
		}
	}
	return worst
}

// dist2 returns w times the squared distance between a and b, or 0
// where w is not positive: a weightless table's cells may be NaN.
func dist2(w float64, a, b []float64) float64 {
	var sum float64
	for i := range a {
		sum += (a[i] - b[i]) * (a[i] - b[i])
	}
	if w > 0 {
		return w * sum
	}
	return 0
}

// wht writes the Walsh–Hadamard transform of src, times scale, into dst
// (which may be src); applied twice it multiplies by len(src). The 8
// cells of a 3-way table take the same butterflies unrolled.
func wht(dst, src []float64, scale float64) {
	if len(src) == 8 {
		x, y := (*[8]float64)(src), (*[8]float64)(dst)
		a0, a1, a2, a3 := x[0]+x[1], x[0]-x[1], x[2]+x[3], x[2]-x[3]
		a4, a5, a6, a7 := x[4]+x[5], x[4]-x[5], x[6]+x[7], x[6]-x[7]
		b0, b1, b2, b3 := a0+a2, a1+a3, a0-a2, a1-a3
		b4, b5, b6, b7 := a4+a6, a5+a7, a4-a6, a5-a7
		y[0], y[1], y[2], y[3] = (b0+b4)*scale, (b1+b5)*scale, (b2+b6)*scale, (b3+b7)*scale
		y[4], y[5], y[6], y[7] = (b0-b4)*scale, (b1-b5)*scale, (b2-b6)*scale, (b3-b7)*scale
		return
	}
	v := dst[:copy(dst, src)]
	_ = hadamard.WHT(v) // fails only on lengths that are no power of two
	for i := range v {
		v[i] *= scale
	}
}
