package view

import (
	"math"
	"testing"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/marginal"
)

// TestTheoreticalTVBoundPinned pins the diagnostics' theoretical bound
// against a hand computation of Theorem 4.5: for InpHT at d=8, k=2,
// eps=2 the bound is sqrt(|T|) * 2^{k/2} / (eps sqrt(n)) with
// |T| = C(8,1)+C(8,2) = 36, i.e. 6 * 2 / (2 sqrt(n)) = 6/sqrt(n).
func TestTheoreticalTVBoundPinned(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	reps := perturb(t, p, 400, 5)
	agg := p.NewAggregator()
	if err := agg.ConsumeBatch(reps); err != nil {
		t.Fatal(err)
	}
	v, err := Build(agg, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Diag.TVBoundErr != "" {
		t.Fatalf("unexpected TV bound error: %s", v.Diag.TVBoundErr)
	}
	want := 6 / math.Sqrt(float64(len(reps)))
	if got := v.Diag.TheoreticalTV; math.Abs(got-want) > 1e-12*want {
		t.Fatalf("TheoreticalTV = %v, want %v (6/sqrt(%d))", got, want, len(reps))
	}
}

// TestTVBoundEmptyEpoch: the bounds need n > 0; an empty epoch records
// the reason instead of a bogus bound.
func TestTVBoundEmptyEpoch(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 6, K: 2, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Build(p.NewAggregator(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Diag.TVBoundErr == "" {
		t.Fatal("empty epoch produced no TV bound error")
	}
	if v.Diag.TheoreticalTV != 0 {
		t.Fatalf("empty epoch TheoreticalTV = %v, want 0", v.Diag.TheoreticalTV)
	}
}

// TestConsistencyL1Diagnostic checks the recorded correction magnitude
// against an independent measurement: the summed |cell difference|
// between a raw build (consistency and projection disabled) and the
// default build over the same aggregator state.
func TestConsistencyL1Diagnostic(t *testing.T) {
	cfg := core.Config{D: 6, K: 2, Epsilon: 1.1, OptimizedPRR: true}
	p, err := core.New(core.MargPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := perturb(t, p, 2000, 9)
	agg := p.NewAggregator()
	if err := agg.ConsumeBatch(reps); err != nil {
		t.Fatal(err)
	}
	raw, err := Build(agg, p, Options{RawCells: true})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Build(agg, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, beta := range bitops.MasksWithExactlyK(cfg.D, cfg.K) {
		rt, err := raw.Marginal(beta)
		if err != nil {
			t.Fatal(err)
		}
		dt, err := def.Marginal(beta)
		if err != nil {
			t.Fatal(err)
		}
		for c := range rt.Cells {
			want += math.Abs(dt.Cells[c] - rt.Cells[c])
		}
	}
	if want == 0 {
		t.Fatal("post-processing moved no mass; test is vacuous")
	}
	if got := def.Diag.ConsistencyL1; math.Abs(got-want) > 1e-12*want {
		t.Fatalf("ConsistencyL1 = %v, independent measurement %v", got, want)
	}
	if raw.Diag.ConsistencyL1 != 0 {
		t.Fatalf("raw build ConsistencyL1 = %v, want 0", raw.Diag.ConsistencyL1)
	}
}

// TestMarginalDriftHandComputed pins marginalDrift on synthetic views
// with hand-computed total-variation distances: table beta=1 moves
// from (0.5, 0.5) to (0.7, 0.3) — L1 0.4, TV 0.2 — and table beta=2
// does not move, so max = 0.2 and mean = 0.1.
func TestMarginalDriftHandComputed(t *testing.T) {
	mk := func(c1, c2 []float64) *View {
		t1 := &marginal.Table{Beta: 1, Cells: c1}
		t2 := &marginal.Table{Beta: 2, Cells: c2}
		return &View{
			kWay:   2,
			tables: []*marginal.Table{t1, t2},
			pos:    map[uint64]int{1: 0, 2: 1},
		}
	}
	prev := mk([]float64{0.5, 0.5}, []float64{0.1, 0.9})
	cur := mk([]float64{0.7, 0.3}, []float64{0.1, 0.9})
	maxTV, meanTV := marginalDrift(prev, cur)
	if math.Abs(maxTV-0.2) > 1e-15 {
		t.Errorf("maxTV = %v, want 0.2", maxTV)
	}
	if math.Abs(meanTV-0.1) > 1e-15 {
		t.Errorf("meanTV = %v, want 0.1", meanTV)
	}
}

// TestEngineDriftBetweenEpochs checks the engine's published drift
// against an independent per-table TV computation between two
// consecutive epochs.
func TestEngineDriftBetweenEpochs(t *testing.T) {
	cfg := core.Config{D: 6, K: 2, Epsilon: 1.1, OptimizedPRR: true}
	p, err := core.New(core.InpHT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded := core.NewSharded(p, 2)
	reps := perturb(t, p, 3000, 21)
	if err := sharded.ConsumeBatch(reps[:1000]); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(sharded, p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	v1, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if v1.Diag.DriftMaxTV != 0 || v1.Diag.DriftBaseEpoch != 0 {
		t.Fatalf("first epoch drift = %v base %d, want zero", v1.Diag.DriftMaxTV, v1.Diag.DriftBaseEpoch)
	}
	if err := sharded.ConsumeBatch(reps[1000:]); err != nil {
		t.Fatal(err)
	}
	v2, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	var wantMax, sum float64
	n := 0
	for _, beta := range bitops.MasksWithExactlyK(cfg.D, cfg.K) {
		t1, err := v1.Marginal(beta)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := v2.Marginal(beta)
		if err != nil {
			t.Fatal(err)
		}
		var l1 float64
		for c := range t1.Cells {
			l1 += math.Abs(t2.Cells[c] - t1.Cells[c])
		}
		tv := l1 / 2
		if tv > wantMax {
			wantMax = tv
		}
		sum += tv
		n++
	}
	wantMean := sum / float64(n)
	if wantMax == 0 {
		t.Fatal("epochs identical; drift test is vacuous")
	}
	if got := v2.Diag.DriftMaxTV; math.Abs(got-wantMax) > 1e-12 {
		t.Errorf("DriftMaxTV = %v, independent measurement %v", got, wantMax)
	}
	if got := v2.Diag.DriftMeanTV; math.Abs(got-wantMean) > 1e-12 {
		t.Errorf("DriftMeanTV = %v, independent measurement %v", got, wantMean)
	}
	if v2.Diag.DriftBaseEpoch != v1.Epoch {
		t.Errorf("DriftBaseEpoch = %d, want %d", v2.Diag.DriftBaseEpoch, v1.Epoch)
	}
}
