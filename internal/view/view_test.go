package view

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/freqoracle"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/query"
	"ldpmarginals/internal/rng"
)

// perturb generates n deterministic reports for the protocol.
func perturb(t testing.TB, p core.Protocol, n int, seed uint64) []core.Report {
	t.Helper()
	client := p.NewClient()
	r := rng.New(seed)
	d := p.Config().D
	reps := make([]core.Report, n)
	for i := range reps {
		rep, err := client.Perturb(uint64(i)%(1<<uint(d)), r)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	return reps
}

func assertTablesIdentical(t *testing.T, label string, a, b *marginal.Table) {
	t.Helper()
	if a.Beta != b.Beta || len(a.Cells) != len(b.Cells) {
		t.Fatalf("%s: shape mismatch %b/%d vs %b/%d", label, a.Beta, len(a.Cells), b.Beta, len(b.Cells))
	}
	for c := range a.Cells {
		if math.Float64bits(a.Cells[c]) != math.Float64bits(b.Cells[c]) {
			t.Fatalf("%s: cell %d differs: %v vs %v", label, c, a.Cells[c], b.Cells[c])
		}
	}
}

// TestCachedAnswersMatchFreshRebuild is the central equivalence claim of
// the subsystem, across all six protocols: a view built through the
// engine over a sharded pipeline answers every |beta| <= k marginal and
// every conjunction bit-identically to a fresh Build over a sequential
// aggregator fed the same reports — the cached epoch *is* the
// snapshot-reconstruction of that epoch.
func TestCachedAnswersMatchFreshRebuild(t *testing.T) {
	cfg := core.Config{D: 6, K: 2, Epsilon: 1.1, OptimizedPRR: true}
	for _, kind := range core.AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := core.New(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reps := perturb(t, p, 3000, uint64(kind)+1)

			sharded := core.NewSharded(p, 4)
			if err := sharded.ConsumeBatch(reps); err != nil {
				t.Fatal(err)
			}
			seq := p.NewAggregator()
			if err := seq.ConsumeBatch(reps); err != nil {
				t.Fatal(err)
			}

			eng, err := NewEngine(sharded, p, EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			cached, err := eng.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Build(seq, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if cached.N != len(reps) || fresh.N != len(reps) {
				t.Fatalf("view N %d/%d, want %d", cached.N, fresh.N, len(reps))
			}

			for _, beta := range bitops.MasksWithAtMostK(cfg.D, 1, cfg.K) {
				got, err := cached.Marginal(beta)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Marginal(beta)
				if err != nil {
					t.Fatal(err)
				}
				assertTablesIdentical(t, kind.String(), got, want)
			}

			for _, qs := range []string{"a0=1 AND a1=0", "a2=1", "a4=0 AND a5=1"} {
				c, err := query.Parse(qs, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cached.Answer(c)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Answer(c)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: conjunction %q: %v vs %v", kind, qs, got, want)
				}
			}
		})
	}
}

// TestBuildIsDeterministic rebuilds from the same snapshot repeatedly —
// the consistency sweep and the reconstruction must not leak
// map-iteration order into the cells.
func TestBuildIsDeterministic(t *testing.T) {
	cfg := core.Config{D: 6, K: 2, Epsilon: 1.1}
	p, err := core.New(core.MargPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	if err := agg.ConsumeBatch(perturb(t, p, 4000, 9)); err != nil {
		t.Fatal(err)
	}
	ref, err := Build(agg, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		v, err := Build(agg, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, beta := range bitops.MasksWithAtMostK(cfg.D, 1, cfg.K) {
			a, err := ref.Marginal(beta)
			if err != nil {
				t.Fatal(err)
			}
			b, err := v.Marginal(beta)
			if err != nil {
				t.Fatal(err)
			}
			assertTablesIdentical(t, "rebuild", a, b)
		}
	}
}

// TestViewTablesAreConsistentDistributions checks the published
// post-processing contract: every k-way table is a probability
// distribution and overlapping tables agree on shared sub-marginals.
func TestViewTablesAreConsistentDistributions(t *testing.T) {
	cfg := core.Config{D: 6, K: 2, Epsilon: 1.1}
	p, err := core.New(core.MargRR, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	if err := agg.ConsumeBatch(perturb(t, p, 20000, 4)); err != nil {
		t.Fatal(err)
	}
	v, err := Build(agg, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range bitops.MasksWithExactlyK(cfg.D, cfg.K) {
		tab, err := v.Marginal(beta)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, c := range tab.Cells {
			if c < -1e-12 {
				t.Fatalf("table %b has negative cell %v after projection", beta, c)
			}
			sum += c
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("table %b mass %v, want 1", beta, sum)
		}
	}
	// A 1-way answer must not depend on which superset served it: the
	// rounds run until the tables agree, so the view's weighted
	// coefficient mean and every superset's marginal coincide.
	one, err := v.Marginal(0b1)
	if err != nil {
		t.Fatal(err)
	}
	for _, super := range bitops.MasksWithExactlyK(cfg.D, cfg.K) {
		if !bitops.IsSubset(0b1, super) {
			continue
		}
		tab, err := v.Marginal(super)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := tab.MarginalizeTo(0b1)
		if err != nil {
			t.Fatal(err)
		}
		for c := range one.Cells {
			if math.Abs(one.Cells[c]-sub.Cells[c]) > 1e-9 {
				t.Fatalf("superset %b implies P=%v for cell %d, view serves %v", super, sub.Cells[c], c, one.Cells[c])
			}
		}
	}
}

// TestRawCellsSkipsProjection checks the RawCells escape hatch keeps the
// unbiased estimates: the aggregator's raw k-way tables, untouched.
func TestRawCellsSkipsProjection(t *testing.T) {
	cfg := core.Config{D: 6, K: 2, Epsilon: 1.1}
	p, err := core.New(core.InpHT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	if err := agg.ConsumeBatch(perturb(t, p, 500, 2)); err != nil {
		t.Fatal(err)
	}
	v, err := Build(agg, p, Options{RawCells: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range bitops.MasksWithExactlyK(cfg.D, cfg.K) {
		got, err := v.Marginal(beta)
		if err != nil {
			t.Fatal(err)
		}
		want, err := agg.Estimate(beta)
		if err != nil {
			t.Fatal(err)
		}
		assertTablesIdentical(t, "raw", got, want)
	}
}

// TestMarginalValidation checks every out-of-contract query is tagged
// ErrBadQuery (the HTTP layer's 400 contract) with the limit named.
func TestMarginalValidation(t *testing.T) {
	cfg := core.Config{D: 6, K: 2, Epsilon: 1.1}
	p, err := core.New(core.InpHT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Build(p.NewAggregator(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range []uint64{0, 1 << 6, 0b111, ^uint64(0)} {
		_, err := v.Marginal(beta)
		if !errors.Is(err, ErrBadQuery) {
			t.Errorf("beta %b: error %v is not ErrBadQuery", beta, err)
		}
	}
	// Empty deployments still answer in-contract queries (uniformly).
	tab, err := v.Marginal(0b11)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tab.Cells {
		if c != 0.25 {
			t.Fatalf("empty view should serve uniform, got %v", tab.Cells)
		}
	}
}

// TestViewIsImmutable checks a caller mutating a served table cannot
// corrupt the cached epoch.
func TestViewIsImmutable(t *testing.T) {
	cfg := core.Config{D: 6, K: 2, Epsilon: 1.1}
	p, err := core.New(core.InpHT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	if err := agg.ConsumeBatch(perturb(t, p, 1000, 6)); err != nil {
		t.Fatal(err)
	}
	v, err := Build(agg, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := v.Marginal(0b11)
	if err != nil {
		t.Fatal(err)
	}
	for c := range first.Cells {
		first.Cells[c] = math.NaN()
	}
	second, err := v.Marginal(0b11)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range second.Cells {
		if math.IsNaN(c) {
			t.Fatal("mutating a served table corrupted the view")
		}
	}
}

// TestViewAgeClampsAtZero: a BuiltAt stamp stripped of its monotonic
// reading (Round(0)) and sitting in the wall-clock future — the shape a
// stepped-back system clock produces — must report a zero age, never a
// negative one that downstream staleness math would misread.
func TestViewAgeClampsAtZero(t *testing.T) {
	cfg := core.Config{D: 6, K: 2, Epsilon: 1.1}
	p, err := core.New(core.InpHT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	if err := agg.ConsumeBatch(perturb(t, p, 50, 9)); err != nil {
		t.Fatal(err)
	}
	v, err := Build(agg, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Age() < 0 {
		t.Fatalf("fresh view age %v is negative", v.Age())
	}
	v.BuiltAt = time.Now().Add(time.Hour).Round(0)
	if got := v.Age(); got != 0 {
		t.Fatalf("future BuiltAt reported age %v, want 0", got)
	}
}

// TestBuildAccuracyWithinTheoreticalBound holds Build's k-way tables
// against the exact marginals of the records behind them, for all six
// protocols at parameters where the paper's bound is informative
// (TV < 1; InpPS's needs n = 2^19 at d = 8, it is 1.29 at 2^17): the
// mean TV over the collection stays within 1.25x the bound, raw and
// post-processed. The bit-identity tests compare Build
// with itself, so a biased reconstruction kernel would pass them all;
// this one would not.
func TestBuildAccuracyWithinTheoreticalBound(t *testing.T) {
	cfg := core.Config{D: 8, K: 2, Epsilon: math.Log(3), OptimizedPRR: true}
	ds := dataset.NewTaxi(1<<19, 20)
	for _, kind := range core.AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := core.New(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			agg, err := core.Run(p, ds.Records, uint64(kind)+5, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{{}, {RawCells: true}} {
				v, err := Build(agg, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				bound := v.Diag.TheoreticalTV
				if v.Diag.TVBoundErr != "" || bound <= 0 || bound >= 1 {
					t.Fatalf("bound %v (%s) is not informative at these parameters", bound, v.Diag.TVBoundErr)
				}
				masks := core.KWayMasks(cfg.D, cfg.K)
				var sum float64
				for _, beta := range masks {
					got, err := v.Marginal(beta)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ds.Marginal(beta)
					if err != nil {
						t.Fatal(err)
					}
					tv, err := got.TVDistance(want)
					if err != nil {
						t.Fatal(err)
					}
					sum += tv
				}
				if mean := sum / float64(len(masks)); mean > 1.25*bound {
					t.Fatalf("raw=%v: mean TV %.4g over %d tables, bound %.4g", opts.RawCells, mean, len(masks), bound)
				}
			}
		})
	}
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

// TestRoundsNeverMoveAwayFromTheTruth: the true marginals are both a
// consistent collection and a point of every table's simplex, so
// neither projection of a round can move the served tables away from
// them in the user-weighted L2 distance the consistency projection
// minimizes (alternating projections are Fejér monotone). On 20 fixed
// seeds, for every served protocol at d = 8 and 16, the served
// collection is at most as far from the truth as after one round.
func TestRoundsNeverMoveAwayFromTheTruth(t *testing.T) {
	for _, shape := range []struct{ d, k int }{{8, 2}, {16, 3}} {
		cfg := core.Config{D: shape.d, K: shape.k, Epsilon: 1.1, OptimizedPRR: true}
		masks := core.KWayMasks(cfg.D, cfg.K)
		for _, p := range servedProtocols(t, cfg) {
			for seed := uint64(1); seed <= 20; seed++ {
				r := rng.New(seed)
				records := make([]uint64, 2000)
				for i := range records {
					// Attributes 0 and 2 are fair coins, the others set one
					// time in four, and attribute 1 copies attribute 0.
					rec := r.Uint64() & (r.Uint64() | 0b101) & (1<<uint(cfg.D) - 1)
					records[i] = rec&^0b10 | rec&1<<1
				}
				agg, err := core.Run(p, records, seed, 1)
				if err != nil {
					t.Fatal(err)
				}
				b, err := newBuilder(p, Options{})
				if err != nil {
					t.Fatal(err)
				}
				v, err := b.build(context.Background(), agg)
				if err != nil {
					t.Fatal(err)
				}
				var total float64
				for _, w := range b.weights {
					total += w
				}
				dist := func(tables []*marginal.Table) float64 {
					var sum float64
					for i, beta := range masks {
						truth, err := marginal.FromRecords(records, beta)
						if err != nil {
							t.Fatal(err)
						}
						for c, got := range tables[i].Cells {
							d := got - truth.Cells[c]/float64(len(records))
							sum += b.weights[i] * d * d
						}
					}
					return sum / total
				}
				// Round 1 by hand, on the raw cells the build checkpointed.
				one := make([]*marginal.Table, len(masks))
				for i, beta := range masks {
					size := 1 << cfg.K
					one[i] = &marginal.Table{Beta: beta, Cells: b.consBefore[i*size : (i+1)*size]}
				}
				b.plan.cons.Project(one, b.weights, b.plan.cons.NewScratch())
				for _, tab := range one {
					tab.ProjectToSimplex()
				}
				if first, all := dist(one), dist(v.tables[:v.kWay]); all > first+1e-12 {
					t.Fatalf("%s d=%d seed %d: weighted L2 distance to the truth %v after %d rounds, %v after one",
						p.Name(), cfg.D, seed, all, v.Diag.ProjectionRounds, first)
				}
			}
		}
	}
}

// TestWideViewAgrees: on an InpPS d=16, k=3 view (560 noisy tables,
// where the simplex binds) the rounds end by agreement, not at their cap
// of 128, and the served tables then disagree on no shared sub-marginal
// cell by more than 1e-9. Plain alternation, without the extrapolated
// step, ends this view at the cap with its tables 1e-5 apart; one round
// left the benchmark's view-wide tables up to 0.975 apart.
func TestWideViewAgrees(t *testing.T) {
	cfg := core.Config{D: 16, K: 3, Epsilon: 1.1}
	p, err := core.New(core.InpPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	if err := agg.ConsumeBatch(perturb(t, p, 20000, 16)); err != nil {
		t.Fatal(err)
	}
	v, err := Build(agg, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d, rounds := v.Diag.MaxDisagreement, v.Diag.ProjectionRounds; !(d <= 1e-9) || rounds >= 128 {
		t.Fatalf("max_disagreement %v after %d rounds, want <= 1e-9 before the cap", d, rounds)
	}
	t.Logf("max_disagreement %.3g after %d rounds", v.Diag.MaxDisagreement, v.Diag.ProjectionRounds)
}
