package consistency

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/marginal"
)

// enforceReference is a frozen copy of the pre-plan Enforce algorithm,
// kept verbatim so the plan-based sweep is pinned bit-identical to it.
func enforceReference(tables []*marginal.Table, weights []float64, opts Options) error {
	opts = opts.withDefaults()
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		if weights[i] < 0 {
			return 0
		}
		return weights[i]
	}
	shared := map[uint64][]int{}
	for i, a := range tables {
		for j := i + 1; j < len(tables); j++ {
			common := a.Beta & tables[j].Beta
			if common == 0 {
				continue
			}
			for c := uint64(1); c < 1<<bitops.OnesCount(common); c++ {
				sub := bitops.Expand(c, common)
				if shared[sub] == nil {
					for idx, t := range tables {
						if bitops.IsSubset(sub, t.Beta) {
							shared[sub] = append(shared[sub], idx)
						}
					}
				}
			}
		}
	}
	if len(shared) == 0 {
		return nil
	}
	order := make([]uint64, 0, len(shared))
	for sub := range shared {
		order = append(order, sub)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for round := 0; round < opts.Rounds; round++ {
		for _, sub := range order {
			members := shared[sub]
			consensus, err := marginal.New(sub)
			if err != nil {
				return err
			}
			var totalW float64
			for _, idx := range members {
				imp, err := tables[idx].MarginalizeTo(sub)
				if err != nil {
					return err
				}
				imp.Scale(w(idx))
				if err := consensus.Add(imp); err != nil {
					return err
				}
				totalW += w(idx)
			}
			if totalW == 0 {
				continue
			}
			consensus.Scale(1 / totalW)
			for _, idx := range members {
				t := tables[idx]
				imp, err := t.MarginalizeTo(sub)
				if err != nil {
					return err
				}
				groupSize := float64(len(t.Cells) / len(consensus.Cells))
				for c := range t.Cells {
					full := bitops.Expand(uint64(c), t.Beta)
					sc := bitops.Compress(full, sub)
					t.Cells[c] += (consensus.Cells[sc] - imp.Cells[sc]) / groupSize
				}
			}
		}
	}
	return nil
}

// maxDisagreementReference is a frozen copy of the pairwise
// MaxDisagreement, kept verbatim so the enumeration-based one is pinned
// bit-identical to it.
func maxDisagreementReference(tables []*marginal.Table) (float64, error) {
	var worst float64
	for i := 0; i < len(tables); i++ {
		for j := i + 1; j < len(tables); j++ {
			common := tables[i].Beta & tables[j].Beta
			if common == 0 {
				continue
			}
			for c := uint64(1); c < 1<<bitops.OnesCount(common); c++ {
				sub := bitops.Expand(c, common)
				a, err := tables[i].MarginalizeTo(sub)
				if err != nil {
					return 0, err
				}
				b, err := tables[j].MarginalizeTo(sub)
				if err != nil {
					return 0, err
				}
				for c := range a.Cells {
					d := a.Cells[c] - b.Cells[c]
					if d < 0 {
						d = -d
					}
					if d > worst {
						worst = d
					}
				}
			}
		}
	}
	return worst, nil
}

// randomCollection builds the full C(d,k) collection with noisy
// (unbiased-estimate-shaped, possibly negative) cells and per-table
// weights.
func randomCollection(t *testing.T, d, k int, seed int64) ([]*marginal.Table, []float64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	return randomTables(t, r, bitops.MasksWithExactlyK(d, k))
}

// randomTables fills one table per mask with noisy cells and draws
// per-table weights, some zero or negative (which count as zero).
func randomTables(t *testing.T, r *rand.Rand, masks []uint64) ([]*marginal.Table, []float64) {
	t.Helper()
	tables := make([]*marginal.Table, len(masks))
	weights := make([]float64, len(masks))
	for i, m := range masks {
		tab, err := marginal.New(m)
		if err != nil {
			t.Fatal(err)
		}
		for c := range tab.Cells {
			tab.Cells[c] = r.Float64()*1.2 - 0.1
		}
		tables[i] = tab
		weights[i] = float64(r.Intn(1000) - 50)
	}
	return tables, weights
}

// mixedCollections returns arbitrary distinct-mask collections of the
// kind Plan.Enforce accepts: nested, chained,
// disjoint and single tables, then random ones with masks of 1-5 bits
// over at most 10 attributes.
func mixedCollections(r *rand.Rand) [][]uint64 {
	out := [][]uint64{
		{0b011, 0b111},
		{0b111, 0b011, 0b110},
		{0b0001, 0b0011, 0b0111, 0b1111},
		{0b0011, 0b1100},
		{0b0011, 0b1100, 0b110000},
		{0b101},
		{0b0111, 0b1110, 0b0110, 0b1000},
	}
	for len(out) < 60 {
		d := 2 + r.Intn(9)
		n := 1 + r.Intn(14)
		seen := map[uint64]bool{}
		var masks []uint64
		for len(masks) < n && len(seen) < 1<<uint(d)-1 {
			m := uint64(r.Intn(1<<uint(d)-1) + 1)
			if bitops.OnesCount(m) > 5 || seen[m] {
				continue
			}
			seen[m] = true
			masks = append(masks, m)
		}
		out = append(out, masks)
	}
	return out
}

func cloneTables(tables []*marginal.Table) []*marginal.Table {
	out := make([]*marginal.Table, len(tables))
	for i, tab := range tables {
		out[i] = tab.Clone()
	}
	return out
}

// assertPlanMatchesReference sweeps clones of tables with a fresh plan
// (twice: the second reuses the pooled scratch, which must not change
// results), with a plan built per sweep, and with the frozen reference,
// and requires all of them bit-identical.
func assertPlanMatchesReference(t *testing.T, label string, tables []*marginal.Table, weights []float64, opts Options) {
	t.Helper()
	betas := make([]uint64, len(tables))
	for i, tab := range tables {
		betas[i] = tab.Beta
	}
	plan, err := NewPlan(betas)
	if err != nil {
		t.Fatal(err)
	}
	want := cloneTables(tables)
	if err := enforceReference(want, weights, opts); err != nil {
		t.Fatal(err)
	}
	for run, sweep := range []func([]*marginal.Table) error{
		func(ts []*marginal.Table) error { return plan.Enforce(ts, weights, opts) },
		func(ts []*marginal.Table) error { return plan.Enforce(ts, weights, opts) },
		func(ts []*marginal.Table) error { return enforce(ts, weights, opts) },
	} {
		got := cloneTables(tables)
		if err := sweep(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			for c := range got[i].Cells {
				if math.Float64bits(got[i].Cells[c]) != math.Float64bits(want[i].Cells[c]) {
					t.Fatalf("%s run %d: table %b cell %d: plan %v != reference %v",
						label, run, got[i].Beta, c, got[i].Cells[c], want[i].Cells[c])
				}
			}
		}
	}
}

// TestPlanEnforceBitIdenticalToReference pins the plan-based sweep to
// the frozen legacy algorithm: same inputs, bit-identical outputs, with
// and without weights, across several (d, k) shapes, on plan reuse, and
// over arbitrary mixed-width collections.
func TestPlanEnforceBitIdenticalToReference(t *testing.T) {
	for _, shape := range []struct{ d, k int }{{4, 2}, {6, 3}, {8, 2}, {5, 4}} {
		tables, weights := randomCollection(t, shape.d, shape.k, int64(7*shape.d+int(shape.k)))
		for _, w := range [][]float64{nil, weights} {
			label := fmt.Sprintf("d=%d k=%d weighted=%v", shape.d, shape.k, w != nil)
			assertPlanMatchesReference(t, label, tables, w, Options{Rounds: 3})
		}
	}
	r := rand.New(rand.NewSource(11))
	for ci, masks := range mixedCollections(r) {
		tables, weights := randomTables(t, r, masks)
		for _, w := range [][]float64{nil, weights} {
			label := fmt.Sprintf("collection %d %b weighted=%v", ci, masks, w != nil)
			assertPlanMatchesReference(t, label, tables, w, Options{Rounds: 1 + ci%4})
		}
	}
}

// TestMaxDisagreementBitIdenticalToReference pins MaxDisagreement to the
// frozen pairwise walk on the mixed collections, before and after a
// sweep, with repeated masks (which MaxDisagreement accepts), and with
// non-finite cells.
func TestMaxDisagreementBitIdenticalToReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for ci, masks := range mixedCollections(r) {
		tables, _ := randomTables(t, r, masks)
		dup, _ := randomTables(t, r, []uint64{masks[r.Intn(len(masks))], masks[0]})
		swept := cloneTables(tables)
		if err := enforce(swept, nil, Options{Rounds: 2}); err != nil {
			t.Fatal(err)
		}
		nonFinite := append(cloneTables(tables), dup...)
		for i, v := range []float64{math.NaN(), math.Inf(1), math.NaN()} {
			tab := nonFinite[r.Intn(len(nonFinite))]
			tab.Cells[(i+ci)%len(tab.Cells)] = v
		}
		for name, ts := range map[string][]*marginal.Table{
			"raw":        tables,
			"swept":      swept,
			"repeated":   append(cloneTables(tables), dup...),
			"non-finite": nonFinite,
		} {
			want, err := maxDisagreementReference(ts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MaxDisagreement(ts)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("collection %d %b %s: MaxDisagreement %v != reference %v", ci, masks, name, got, want)
			}
		}
	}
}

// TestPlanEnforceValidation covers the mismatch errors unique to the
// plan path.
func TestPlanEnforceValidation(t *testing.T) {
	plan, err := NewPlan([]uint64{0b011, 0b110})
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := marginal.New(0b011)
	t2, _ := marginal.New(0b101) // wrong mask
	if err := plan.Enforce([]*marginal.Table{t1, t2}, nil, Options{}); err == nil {
		t.Fatal("plan accepted a table over the wrong mask")
	}
	if err := plan.Enforce([]*marginal.Table{t1}, nil, Options{}); err == nil {
		t.Fatal("plan accepted a short table list")
	}
	if _, err := NewPlan([]uint64{0b011, 0b011}); err == nil {
		t.Fatal("NewPlan accepted duplicate masks")
	}
}

// TestWideTablesPlanOnlyWhatTheyShare: a plan holds, and Enforce and
// MaxDisagreement visit, only the sub-marginals two tables share, so a
// wide table costs no more than its overlaps. Enumerating every submask
// of a 20-attribute table would build a million index maps.
func TestWideTablesPlanOnlyWhatTheyShare(t *testing.T) {
	wide := uint64(1)<<20 - 1
	singles := []uint64{1<<16 - 1}
	for a := 0; a < 12; a++ {
		singles = append(singles, 1<<uint(a))
	}
	for _, tc := range []struct {
		name  string
		masks []uint64
		subs  int
	}{
		{"one 20-attribute table", []uint64{wide}, 0},
		{"two disjoint 13-attribute tables", []uint64{1<<13 - 1, (1<<13 - 1) << 13}, 0},
		{"two 12-attribute tables sharing one attribute", []uint64{1<<12 - 1, (1<<12 - 1) << 11}, 1},
		{"a 16-attribute table and 12 of its attributes", singles, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := len(newPlan(tc.masks).subs); got != tc.subs {
				t.Fatalf("plan holds %d sub-marginals, want %d", got, tc.subs)
			}
			tables := make([]*marginal.Table, len(tc.masks))
			for i, m := range tc.masks {
				tables[i], _ = marginal.Uniform(m)
			}
			if err := enforce(tables, nil, Options{}); err != nil {
				t.Fatal(err)
			}
			if d, err := MaxDisagreement(tables); err != nil || d > 1e-12 {
				t.Fatalf("uniform tables disagree by %v (%v)", d, err)
			}
		})
	}
}

// BenchmarkNewPlan derives the overlap structure of the full C(d,3)
// collection, as a view's first epoch at that width does.
func BenchmarkNewPlan(b *testing.B) {
	for _, d := range []int{16, 24, 32} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			masks := bitops.MasksWithExactlyK(d, 3)
			for i := 0; i < b.N; i++ {
				if _, err := NewPlan(masks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
