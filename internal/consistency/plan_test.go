package consistency

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/freqoracle"
	"ldpmarginals/internal/hadamard"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/vec"
)

// enforceReference is a frozen copy of the additive sweep Enforce ran
// before it became a closed-form projection (the plan-based sweep was
// pinned bit-identical to it): for every shared sub-marginal in mask
// order, the weighted consensus of the tables holding it, then each
// table's cells shifted uniformly within each sub-cell group to match.
// Repeated sweeps converge to the projection, which the tests hold
// Project to.
func enforceReference(tables []*marginal.Table, weights []float64, rounds int) error {
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
	for round := 0; round < rounds; round++ {
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

// servedProtocols returns every protocol a deployment serves at cfg:
// the core kinds but InpRR, then InpHTCMS.
func servedProtocols(t *testing.T, cfg core.Config) []core.Protocol {
	t.Helper()
	var ps []core.Protocol
	for _, kind := range []core.Kind{core.InpPS, core.InpHT, core.MargRR, core.MargPS, core.MargHT} {
		p, err := core.New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	hcms, err := freqoracle.NewHCMS(freqoracle.HCMSConfig{D: cfg.D, K: cfg.K, Epsilon: cfg.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	return append(ps, hcms)
}

// reconstructed returns a protocol's k-way collection over n fixed-seed
// reports and each table's user count as its weight, as a view build
// sees them.
func reconstructed(t *testing.T, p core.Protocol, n int, seed uint64) ([]*marginal.Table, []float64) {
	t.Helper()
	cfg := p.Config()
	client, agg, r := p.NewClient(), p.NewAggregator(), rng.New(seed)
	reps := make([]core.Report, n)
	for i := range reps {
		// Attributes 1 and 3 are fair coins, the others 1 one time in 4.
		rep, err := client.Perturb(r.Uint64()&(r.Uint64()|0b1010)&(1<<uint(cfg.D)-1), r)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	if err := agg.ConsumeBatch(reps); err != nil {
		t.Fatal(err)
	}
	arena, err := core.NewKWayArena(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.AllKWayTablesInto(agg, arena, true); err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, len(arena.Users))
	for i, u := range arena.Users {
		weights[i] = float64(u)
	}
	return cloneTables(arena.Tables), weights
}

// assertProjectionIsSweepLimit projects clones of tables once, and once
// more reusing the scratch, and requires every cell within 1e-12 of 200
// sweeps of the frozen additive algorithm.
func assertProjectionIsSweepLimit(t *testing.T, label string, tables []*marginal.Table, weights []float64) {
	t.Helper()
	want := cloneTables(tables)
	if err := enforceReference(want, weights, 200); err != nil {
		t.Fatal(err)
	}
	betas := make([]uint64, len(tables))
	for i, tab := range tables {
		betas[i] = tab.Beta
	}
	plan, err := NewPlan(betas)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.NewScratch()
	for run := 0; run < 2; run++ {
		got := cloneTables(tables)
		plan.Project(got, weights, s)
		for i := range got {
			for c := range got[i].Cells {
				if d := math.Abs(got[i].Cells[c] - want[i].Cells[c]); !(d <= 1e-12) {
					t.Fatalf("%s run %d: table %b cell %d: projection %v, 200 sweeps %v",
						label, run, got[i].Beta, c, got[i].Cells[c], want[i].Cells[c])
				}
			}
		}
	}
}

// TestProjectionIsSweepLimit: one closed-form projection lands where 200
// of the old additive sweeps converge, to 1e-12 per cell — on every
// served protocol's reconstructed collection at three shapes, weighted
// by user counts and uniformly, and on arbitrary mixed-width collections
// with positive weights.
func TestProjectionIsSweepLimit(t *testing.T) {
	for _, shape := range []struct{ d, k int }{{6, 2}, {8, 2}, {10, 3}} {
		cfg := core.Config{D: shape.d, K: shape.k, Epsilon: 1.1, OptimizedPRR: true}
		for _, p := range servedProtocols(t, cfg) {
			tables, weights := reconstructed(t, p, 3000, uint64(shape.d))
			for _, w := range [][]float64{weights, nil} {
				assertProjectionIsSweepLimit(t, fmt.Sprintf("%s d=%d k=%d weighted=%v", p.Name(), shape.d, shape.k, w != nil), tables, w)
			}
		}
	}
	r := rand.New(rand.NewSource(11))
	for ci, masks := range mixedCollections(r) {
		tables, weights := randomTables(t, r, masks)
		for i := range weights {
			weights[i] = 1 + math.Abs(weights[i])
		}
		assertProjectionIsSweepLimit(t, fmt.Sprintf("collection %d %b", ci, masks), tables, weights)
	}
}

// TestAgreeNeverMovesAwayFromADistribution: on the mixed collections,
// with noisy cells and weights some of them zero, Agree ends on
// distributions that agree to 1e-9 before its cap, and in the weighted
// norm of the transforms it ends no farther than Project followed by the
// simplex step (its round 1) from either of two consistent collections
// of distributions: the uniform tables, and the marginals of a random
// distribution over the attributes. Every step projects, exactly or
// relaxed, onto a convex set holding both, so this holds on every input.
func TestAgreeNeverMovesAwayFromADistribution(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for ci, masks := range mixedCollections(r) {
		tables, weights := randomTables(t, r, masks)
		plan, err := NewPlan(masks)
		if err != nil {
			t.Fatal(err)
		}
		dist := make([]float64, 1<<10)
		for i := range dist {
			dist[i] = r.ExpFloat64()
		}
		dist = vec.Normalize(dist)
		var targets [2][]*marginal.Table
		for _, m := range masks {
			u, _ := marginal.Uniform(m)
			tm, err := marginal.FromDistribution(dist, 10, m)
			if err != nil {
				t.Fatal(err)
			}
			targets[0], targets[1] = append(targets[0], u), append(targets[1], tm)
		}
		distance := func(ts, target []*marginal.Table) float64 {
			var sum float64
			for i, tab := range ts {
				if weights[i] > 0 {
					sum += weights[i] * float64(len(tab.Cells)) * dist2(1, tab.Cells, target[i].Cells)
				}
			}
			return sum
		}
		one := cloneTables(tables)
		plan.Project(one, weights, plan.NewScratch())
		for _, tab := range one {
			tab.ProjectToSimplex()
		}
		rounds := plan.Agree(tables, weights, plan.NewScratch())
		label := fmt.Sprintf("collection %d %b", ci, masks)
		for ti, target := range targets {
			if got, first := distance(tables, target), distance(one, target); got > first*(1+1e-12)+1e-12 {
				t.Fatalf("%s: distance %v to target %d after %d rounds, %v after one", label, got, ti, rounds, first)
			}
		}
		var weighted []*marginal.Table
		for i, tab := range tables {
			if math.Abs(vec.Sum(tab.Cells)-1) > 1e-12 || slices.Min(tab.Cells) < 0 {
				t.Fatalf("%s: table %b is no distribution: %v", label, tab.Beta, tab.Cells)
			}
			if weights[i] > 0 {
				weighted = append(weighted, tab)
			}
		}
		if d, err := MaxDisagreement(weighted); err != nil || rounds >= maxRounds || d > 1e-9 {
			t.Fatalf("%s: weighted tables %v apart after %d rounds (%v)", label, d, rounds, err)
		}
	}
}

// TestWeightlessTableCannotHoldTheRoundsOpen: the weighted pair tables
// say a = b, b = c and a != c, each a distribution and all agreeing on
// their uniform singles, but no distribution over {a, b, c} has those
// pairs. A weightless {a, b, c} table can then never agree with them;
// the rounds still end at 2, once the tables with weight agree, and
// leave those as they were.
func TestWeightlessTableCannotHoldTheRoundsOpen(t *testing.T) {
	ab, _ := marginal.FromCells(0b011, []float64{0.5, 0, 0, 0.5})
	bc, _ := marginal.FromCells(0b110, []float64{0.5, 0, 0, 0.5})
	ac, _ := marginal.FromCells(0b101, []float64{0, 0.5, 0.5, 0})
	abc, _ := marginal.Uniform(0b111)
	tables := []*marginal.Table{ab, bc, ac, abc}
	want := cloneTables(tables)
	plan, err := NewPlan([]uint64{0b011, 0b110, 0b101, 0b111})
	if err != nil {
		t.Fatal(err)
	}
	if rounds := plan.Agree(tables, []float64{1, 1, 1, 0}, plan.NewScratch()); rounds != 2 {
		t.Fatalf("%d rounds, want 2", rounds)
	}
	for i, tab := range tables[:3] {
		if d := vec.MaxAbsDiff(tab.Cells, want[i].Cells); d > 1e-15 {
			t.Fatalf("weighted table %b moved by %v to %v", tab.Beta, d, tab.Cells)
		}
	}
}

// TestMaxDisagreementMatchesPairwiseWalk holds the plan's
// transform-based MaxDisagreement, which the view reports, to the frozen
// pairwise walk within 1e-12, before and after a projection and with
// repeated masks.
func TestMaxDisagreementMatchesPairwiseWalk(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for ci, masks := range mixedCollections(r) {
		tables, _ := randomTables(t, r, masks)
		dup, _ := randomTables(t, r, []uint64{masks[r.Intn(len(masks))]})
		projected := cloneTables(tables)
		if err := enforce(projected, nil, Options{}); err != nil {
			t.Fatal(err)
		}
		for name, ts := range map[string][]*marginal.Table{
			"raw":       tables,
			"projected": projected,
			"repeated":  append(cloneTables(tables), dup...),
		} {
			want, err := maxDisagreementReference(ts)
			if err != nil {
				t.Fatal(err)
			}
			betas, _ := masksOf(ts)
			p := newPlan(betas)
			s := p.NewScratch()
			p.Means(ts, nil, s)
			if got := p.MaxDisagreement(s); math.Abs(got-want) > 1e-12 {
				t.Fatalf("collection %d %b %s: MaxDisagreement %v, pairwise walk %v", ci, masks, name, got, want)
			}
		}
	}
}

// TestMaxDisagreementBitIdenticalToReference pins MaxDisagreement to the
// frozen pairwise walk on the mixed collections, before and after a
// projection, with repeated masks (which MaxDisagreement accepts), and with
// non-finite cells.
func TestMaxDisagreementBitIdenticalToReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for ci, masks := range mixedCollections(r) {
		tables, _ := randomTables(t, r, masks)
		dup, _ := randomTables(t, r, []uint64{masks[r.Intn(len(masks))], masks[0]})
		swept := cloneTables(tables)
		if err := enforce(swept, nil, Options{}); err != nil {
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
// MaxDisagreement visit, only the sub-marginals two tables share (one
// id each, and one for the total mass of each group of overlapping
// tables), so a wide table costs no more than its overlaps and its own
// cells. Enumerating every submask of a 20-attribute table would hold a
// million coefficients.
func TestWideTablesPlanOnlyWhatTheyShare(t *testing.T) {
	wide := uint64(1)<<20 - 1
	singles := []uint64{1<<16 - 1}
	for a := 0; a < 12; a++ {
		singles = append(singles, 1<<uint(a))
	}
	for _, tc := range []struct {
		name  string
		masks []uint64
		ids   int
	}{
		{"one 20-attribute table", []uint64{wide}, 0},
		{"two disjoint 13-attribute tables", []uint64{1<<13 - 1, (1<<13 - 1) << 13}, 0},
		{"two 12-attribute tables sharing one attribute", []uint64{1<<12 - 1, (1<<12 - 1) << 11}, 2},
		{"a 16-attribute table and 12 of its attributes", singles, 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := len(newPlan(tc.masks).masks); got != tc.ids {
				t.Fatalf("plan holds %d coefficient ids, want %d", got, tc.ids)
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

// BenchmarkProject runs the view's round over a noisy C(d,k)
// collection: one closed-form projection, then the simplex projection of
// every table.
func BenchmarkProject(b *testing.B) {
	for _, shape := range []struct{ d, k int }{{8, 2}, {16, 3}, {32, 3}} {
		masks := bitops.MasksWithExactlyK(shape.d, shape.k)
		r := rand.New(rand.NewSource(1))
		src := make([]*marginal.Table, len(masks))
		weights := make([]float64, len(masks))
		for i, m := range masks {
			src[i], _ = marginal.New(m)
			for c := range src[i].Cells {
				src[i].Cells[c] = r.Float64()*1.2 - 0.1
			}
			weights[i] = float64(1000 + r.Intn(100))
		}
		plan, err := NewPlan(masks)
		if err != nil {
			b.Fatal(err)
		}
		s := plan.NewScratch()
		tables := cloneTables(src)
		b.Run(fmt.Sprintf("d=%d,k=%d", shape.d, shape.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for i, t := range tables {
					copy(t.Cells, src[i].Cells)
				}
				plan.Project(tables, weights, s)
				for _, t := range tables {
					t.ProjectToSimplex()
				}
			}
		})
	}
}

// BenchmarkWHT transforms 560 eight-cell tables, the k-way collection of
// a d=16, k=3 view: with the butterflies wht unrolls at 8 cells, and
// with the general hadamard.WHT it takes at every other length.
func BenchmarkWHT(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	src, dst := make([]float64, 560*8), make([]float64, 560*8)
	for i := range src {
		src[i] = r.Float64()
	}
	for _, impl := range []struct {
		name string
		f    func(dst, src []float64)
	}{
		{"unrolled", func(dst, src []float64) { wht(dst, src, 0.125) }},
		{"generic", func(dst, src []float64) {
			_ = hadamard.WHT(dst[:copy(dst, src)])
			for i := range dst {
				dst[i] *= 0.125
			}
		}},
	} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for t := 0; t < len(src); t += 8 {
					impl.f(dst[t:t+8], src[t:t+8])
				}
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
