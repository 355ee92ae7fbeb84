package consistency

import (
	"math"
	"strings"
	"testing"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/vec"
)

// enforce projects tables with a plan built over their own masks.
func enforce(tables []*marginal.Table, weights []float64, opts Options) error {
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
// 0 means fully consistent. Tables may repeat a mask. It reads the
// shared sub-marginals and their tables off the plan and sums cells in
// table order, as MarginalizeTo does, so it equals a pairwise walk bit
// for bit.
func MaxDisagreement(tables []*marginal.Table) (float64, error) {
	betas, err := masksOf(tables)
	if err != nil {
		return 0, err
	}
	p := newPlan(betas)
	members := make([][]int, len(p.masks))
	for t := range tables {
		for _, r := range p.refs[p.off[t]:p.off[t+1]] {
			members[r.id] = append(members[r.id], t)
		}
	}
	var worst float64
	for id, sub := range p.masks {
		if sub == 0 {
			continue
		}
		size := 1 << uint(bitops.OnesCount(sub))
		hi, lo, imp := make([]float64, size), make([]float64, size), make([]float64, size)
		for c := range hi {
			hi[c], lo[c] = math.Inf(-1), math.Inf(1)
		}
		for _, m := range members[id] {
			clear(imp)
			local := bitops.Compress(sub, tables[m].Beta)
			for c, v := range tables[m].Cells {
				imp[bitops.Compress(uint64(c), local)] += v
			}
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

func TestEnforceValidation(t *testing.T) {
	if err := enforce(nil, nil, Options{}); err == nil {
		t.Error("no tables should error")
	}
	a, _ := marginal.Uniform(0b11)
	b, _ := marginal.Uniform(0b11)
	if err := enforce([]*marginal.Table{a, b}, nil, Options{}); err == nil {
		t.Error("duplicate masks should error")
	}
	if err := enforce([]*marginal.Table{a, nil}, nil, Options{}); err == nil {
		t.Error("nil table should error")
	}
	c, _ := marginal.Uniform(0b101)
	if err := enforce([]*marginal.Table{a, c}, []float64{1}, Options{}); err == nil {
		t.Error("weight count mismatch should error")
	}
}

// TestMalformedTablesRefused: a table holding more or fewer than
// 2^|Beta| cells, or a nil one, is refused with an error naming it, and
// no table is touched. (A pairwise walk indexed past a long table, let a
// short one shift its neighbours' mass, and dereferenced a nil one.)
func TestMalformedTablesRefused(t *testing.T) {
	long := &marginal.Table{Beta: 0b011, Cells: make([]float64, 8)}
	short := &marginal.Table{Beta: 0b011, Cells: []float64{0.5, 0.5}}
	plan, err := NewPlan([]uint64{0b011, 0b110})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		bad  *marginal.Table
		run  func([]*marginal.Table) error
	}{
		{"Enforce/long", long, func(ts []*marginal.Table) error { return enforce(ts, nil, Options{}) }},
		{"Enforce/short", short, func(ts []*marginal.Table) error { return enforce(ts, nil, Options{}) }},
		{"Plan.Enforce/long", long, func(ts []*marginal.Table) error { return plan.Enforce(ts, nil, Options{}) }},
		{"Plan.Enforce/short", short, func(ts []*marginal.Table) error { return plan.Enforce(ts, nil, Options{}) }},
		{"MaxDisagreement/long", long, func(ts []*marginal.Table) error { _, err := MaxDisagreement(ts); return err }},
		{"MaxDisagreement/short", short, func(ts []*marginal.Table) error { _, err := MaxDisagreement(ts); return err }},
		{"MaxDisagreement/nil", nil, func(ts []*marginal.Table) error { _, err := MaxDisagreement(ts); return err }},
		{"Enforce/nil", nil, func(ts []*marginal.Table) error { return enforce(ts, nil, Options{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bad *marginal.Table
			if tc.bad != nil {
				bad = tc.bad.Clone()
			}
			good, _ := marginal.Uniform(0b110)
			err := tc.run([]*marginal.Table{bad, good})
			if err == nil || !strings.Contains(err.Error(), "table 0") {
				t.Fatalf("got %v, want an error naming table 0", err)
			}
			if vec.Sum(good.Cells) != 1 || (bad != nil && vec.Sum(bad.Cells) != vec.Sum(tc.bad.Cells)) {
				t.Fatal("a refused collection was modified")
			}
		})
	}
}

func TestEnforceMakesTablesConsistent(t *testing.T) {
	// Two overlapping 2-way tables with deliberately disagreeing
	// implied 1-way marginals for the shared attribute 0.
	ab, _ := marginal.FromCells(0b011, []float64{0.4, 0.1, 0.3, 0.2}) // P(a=1) = 0.3
	ac, _ := marginal.FromCells(0b101, []float64{0.2, 0.3, 0.2, 0.3}) // P(a=1) = 0.6
	tables := []*marginal.Table{ab, ac}
	before, err := MaxDisagreement(tables)
	if err != nil {
		t.Fatal(err)
	}
	if before < 0.2 {
		t.Fatalf("setup should disagree, got %v", before)
	}
	if err := enforce(tables, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	after, err := MaxDisagreement(tables)
	if err != nil {
		t.Fatal(err)
	}
	if after > 1e-9 {
		t.Errorf("disagreement after enforcement = %v, want ~0", after)
	}
	// Total mass preserved.
	for _, tab := range tables {
		if math.Abs(vec.Sum(tab.Cells)-1) > 1e-9 {
			t.Errorf("mass changed: %v", vec.Sum(tab.Cells))
		}
	}
}

func TestEnforceConsensusIsWeighted(t *testing.T) {
	ab, _ := marginal.FromCells(0b011, []float64{0.5, 0.0, 0.5, 0.0}) // P(a=1) = 0
	ac, _ := marginal.FromCells(0b101, []float64{0.0, 0.5, 0.0, 0.5}) // P(a=1) = 1
	tables := []*marginal.Table{ab, ac}
	// All weight on the second table: consensus P(a=1) = 1.
	if err := enforce(tables, []float64{0, 1}, Options{}); err != nil {
		t.Fatal(err)
	}
	sub, err := tables[0].MarginalizeTo(0b001)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sub.Cells[1]-1) > 1e-9 {
		t.Errorf("weighted consensus ignored: P(a=1) = %v, want 1", sub.Cells[1])
	}
}

// TestWeightlessTableStaysOutOfConsensus: a table with no weight adds
// nothing to the consensus, even when its cells are not finite (a
// reconstruction over no reports); the others still agree with each
// other and keep finite cells.
func TestWeightlessTableStaysOutOfConsensus(t *testing.T) {
	ab, _ := marginal.FromCells(0b011, []float64{0.4, 0.1, 0.3, 0.2})
	ac, _ := marginal.FromCells(0b101, []float64{0.2, 0.3, 0.2, 0.3})
	bc, _ := marginal.FromCells(0b110, []float64{math.NaN(), 0, 0, math.Inf(1)})
	if err := enforce([]*marginal.Table{ab, ac, bc}, []float64{1, 1, 0}, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*marginal.Table{ab, ac} {
		for _, v := range tab.Cells {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("weightless table leaked into %b: %v", tab.Beta, tab.Cells)
			}
		}
	}
	if d, err := MaxDisagreement([]*marginal.Table{ab, ac}); err != nil || d > 1e-9 {
		t.Fatalf("weighted tables disagree by %v (%v)", d, err)
	}
}

// TestEnforceWeightedOverlappingTables drives the weighted-averaging
// path the way a marginal-view deployment does: several overlapping
// tables with very different evidence (user counts), non-uniform
// weights. Enforcement must drive MaxDisagreement to ~0 while
// preserving each table's mass, and the consensus must sit closer to
// the heavily-weighted tables' evidence than to the lightly-weighted
// one's.
func TestEnforceWeightedOverlappingTables(t *testing.T) {
	// Three pairwise-overlapping 2-way tables over attributes {0,1},
	// {0,2}, {1,2}. ab and bc carry most of the evidence and imply
	// P(a1=1) = 0.30; ac is a tiny sample claiming P(a1=1) = 0.90.
	ab, _ := marginal.FromCells(0b011, []float64{0.40, 0.30, 0.10, 0.20}) // P(a0=1)=0.5, P(a1=1)=0.3
	ac, _ := marginal.FromCells(0b101, []float64{0.05, 0.05, 0.45, 0.45}) // P(a0=1)=0.5, P(a2=1)=0.9
	bc, _ := marginal.FromCells(0b110, []float64{0.60, 0.10, 0.20, 0.10}) // P(a1=1)=0.3, P(a2=1)=0.3
	tables := []*marginal.Table{ab, ac, bc}
	weights := []float64{10000, 100, 10000}

	before, err := MaxDisagreement(tables)
	if err != nil {
		t.Fatal(err)
	}
	if before < 0.5 {
		t.Fatalf("setup should disagree badly on a2, got %v", before)
	}
	if err := enforce(tables, weights, Options{}); err != nil {
		t.Fatal(err)
	}
	after, err := MaxDisagreement(tables)
	if err != nil {
		t.Fatal(err)
	}
	if after > 1e-6 {
		t.Errorf("disagreement after weighted enforcement = %v, want ~0", after)
	}
	for i, tab := range tables {
		if math.Abs(vec.Sum(tab.Cells)-1) > 1e-9 {
			t.Errorf("table %d mass changed to %v", i, vec.Sum(tab.Cells))
		}
	}
	// The a2 consensus must land near the heavy table's 0.3, not the
	// light table's 0.9 (weighted mean is ~0.306).
	sub, err := tables[2].MarginalizeTo(0b100)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cells[1] > 0.4 {
		t.Errorf("P(a2=1) consensus %v ignores the 100:1 weight ratio", sub.Cells[1])
	}
}

// TestEnforceIsDeterministic runs the projection repeatedly over identical
// inputs with enough overlap structure to exercise many shared
// sub-marginals; every cell must come out bit-identical. The
// materialized-view engine relies on this for reproducible epochs.
func TestEnforceIsDeterministic(t *testing.T) {
	build := func() []*marginal.Table {
		var tables []*marginal.Table
		for i, beta := range []uint64{0b0111, 0b1011, 0b1101, 0b1110} {
			cells := make([]float64, 8)
			for c := range cells {
				cells[c] = float64((i*7+c*3)%11) / 44.0
			}
			tab, err := marginal.FromCells(beta, cells)
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, tab)
		}
		return tables
	}
	weights := []float64{1, 2, 3, 4}
	ref := build()
	if err := enforce(ref, weights, Options{}); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		got := build()
		if err := enforce(got, weights, Options{}); err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			for c := range ref[i].Cells {
				if math.Float64bits(got[i].Cells[c]) != math.Float64bits(ref[i].Cells[c]) {
					t.Fatalf("trial %d: table %d cell %d differs: %v vs %v",
						trial, i, c, got[i].Cells[c], ref[i].Cells[c])
				}
			}
		}
	}
}

func TestEnforceLeavesExactTablesAlone(t *testing.T) {
	// Tables computed from the same data are already consistent: the
	// projection must be (numerically) a no-op.
	ds := dataset.NewTaxi(20000, 1)
	var tables []*marginal.Table
	var orig [][]float64
	for _, beta := range []uint64{0b011, 0b101, 0b110} {
		tab, err := ds.Marginal(beta)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tab)
		orig = append(orig, append([]float64(nil), tab.Cells...))
	}
	if err := enforce(tables, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	for i, tab := range tables {
		for c := range tab.Cells {
			if math.Abs(tab.Cells[c]-orig[i][c]) > 1e-9 {
				t.Fatalf("exact table %d changed at cell %d", i, c)
			}
		}
	}
}

func TestEnforceOnLDPEstimatesImprovesCoherence(t *testing.T) {
	ds := dataset.NewTaxi(100000, 2)
	p, err := core.New(core.MargPS, core.Config{D: ds.D, K: 2, Epsilon: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := core.Run(p, ds.Records, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	betas := []uint64{0b00000011, 0b00000101, 0b00000110, 0b00001001}
	var tables []*marginal.Table
	for _, beta := range betas {
		tab, err := agg.Estimate(beta)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tab)
	}
	before, err := MaxDisagreement(tables)
	if err != nil {
		t.Fatal(err)
	}
	if before <= 0 {
		t.Fatal("independently-noised tables should disagree")
	}
	if err := enforce(tables, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	after, err := MaxDisagreement(tables)
	if err != nil {
		t.Fatal(err)
	}
	if after > before/10 {
		t.Errorf("disagreement %v -> %v; expected at least 10x reduction", before, after)
	}
	// Accuracy must not degrade materially: each adjusted table stays
	// close to the exact marginal.
	for i, beta := range betas {
		exact, err := ds.Marginal(beta)
		if err != nil {
			t.Fatal(err)
		}
		tv, err := tables[i].TVDistance(exact)
		if err != nil {
			t.Fatal(err)
		}
		if tv > 0.1 {
			t.Errorf("table %b TV after enforcement = %v", beta, tv)
		}
	}
}

func TestEnforceDisjointTablesNoOp(t *testing.T) {
	a, _ := marginal.FromCells(0b0011, []float64{0.7, 0.1, 0.1, 0.1})
	b, _ := marginal.FromCells(0b1100, []float64{0.1, 0.1, 0.1, 0.7})
	orig := append([]float64(nil), a.Cells...)
	if err := enforce([]*marginal.Table{a, b}, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	for c := range orig {
		if a.Cells[c] != orig[c] {
			t.Error("disjoint tables should be untouched")
		}
	}
}

func TestMaxDisagreementZeroForSingle(t *testing.T) {
	a, _ := marginal.Uniform(0b11)
	d, err := MaxDisagreement([]*marginal.Table{a})
	if err != nil || d != 0 {
		t.Errorf("single table disagreement = %v, %v", d, err)
	}
}

func TestInpHTIsAutomaticallyConsistent(t *testing.T) {
	// InpHT reconstructs every marginal from one shared coefficient
	// pool, so overlapping tables agree exactly without any
	// post-processing — a structural advantage over the marginal-view
	// protocols, which need Enforce.
	ds := dataset.NewTaxi(50000, 9)
	p, err := core.New(core.InpHT, core.Config{D: ds.D, K: 2, Epsilon: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := core.Run(p, ds.Records, 21, 4)
	if err != nil {
		t.Fatal(err)
	}
	var tables []*marginal.Table
	for _, beta := range []uint64{0b011, 0b101, 0b110, 0b1001} {
		tab, err := agg.Estimate(beta)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tab)
	}
	disagreement, err := MaxDisagreement(tables)
	if err != nil {
		t.Fatal(err)
	}
	if disagreement > 1e-9 {
		t.Errorf("InpHT tables should be consistent by construction, got %v", disagreement)
	}
}
