package core

import (
	"math"
	"strings"
	"testing"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/rng"
)

const ln3 = 1.0986122886681098

// skewedRecords builds a deterministic synthetic population over d
// attributes with non-trivial correlations, for accuracy checks.
func skewedRecords(n, d int, seed uint64) []uint64 {
	r := rng.New(seed)
	recs := make([]uint64, n)
	for i := range recs {
		var rec uint64
		base := r.Bernoulli(0.6)
		for j := 0; j < d; j++ {
			p := 0.2 + 0.1*float64(j%3)
			if base {
				p += 0.3
			}
			if r.Bernoulli(p) {
				rec |= 1 << uint(j)
			}
		}
		recs[i] = rec
	}
	return recs
}

func TestConfigValidate(t *testing.T) {
	good := Config{D: 8, K: 2, Epsilon: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{D: 0, K: 1, Epsilon: 1},
		{D: 50, K: 1, Epsilon: 1},
		{D: 4, K: 0, Epsilon: 1},
		{D: 4, K: 5, Epsilon: 1},
		{D: 4, K: 2, Epsilon: 0},
		{D: 4, K: 2, Epsilon: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		InpRR: "InpRR", InpPS: "InpPS", InpHT: "InpHT",
		MargRR: "MargRR", MargPS: "MargPS", MargHT: "MargHT",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should include its number")
	}
	if len(AllKinds()) != 6 {
		t.Error("AllKinds should list 6 protocols")
	}
}

func TestNewFactory(t *testing.T) {
	cfg := Config{D: 6, K: 2, Epsilon: ln3}
	for _, kind := range AllKinds() {
		p, err := New(kind, cfg)
		if err != nil {
			t.Fatalf("New(%v): %v", kind, err)
		}
		if p.Name() != kind.String() {
			t.Errorf("protocol name %q != kind %q", p.Name(), kind)
		}
		if p.Config() != cfg {
			t.Errorf("%v config round trip failed", kind)
		}
	}
	if _, err := New(Kind(42), cfg); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestCommunicationBitsTable2(t *testing.T) {
	// Table 2 with d=8, k=2: InpRR 2^d, InpPS d, InpHT d+1,
	// MargRR d+2^k, MargPS d+k, MargHT d+k+1.
	cfg := Config{D: 8, K: 2, Epsilon: ln3}
	want := map[Kind]int{
		InpRR: 256, InpPS: 8, InpHT: 9, MargRR: 12, MargPS: 10, MargHT: 11,
	}
	for kind, bits := range want {
		p, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.CommunicationBits(); got != bits {
			t.Errorf("%v communication = %d bits, want %d", kind, got, bits)
		}
	}
}

func TestInputProtocolDimensionLimits(t *testing.T) {
	cfg := Config{D: 24, K: 2, Epsilon: 1}
	if _, err := NewInpRR(cfg); err == nil {
		t.Error("InpRR should refuse d=24")
	}
	if _, err := NewInpPS(cfg); err == nil {
		t.Error("InpPS should refuse d=24")
	}
	// The scalable protocols must accept it.
	for _, kind := range []Kind{InpHT, MargRR, MargPS, MargHT} {
		if _, err := New(kind, cfg); err != nil {
			t.Errorf("%v should accept d=24: %v", kind, err)
		}
	}
}

// runAccuracy runs the protocol over records and returns the mean TV over
// all marginals of size exactly qk.
func runAccuracy(t *testing.T, kind Kind, cfg Config, records []uint64, qk int, seed uint64) float64 {
	t.Helper()
	p, err := New(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Run(p, records, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := marginal.MeanTV(agg, records, bitops.MasksWithExactlyK(cfg.D, qk))
	if err != nil {
		t.Fatal(err)
	}
	return tv
}

func TestAllProtocolsRecoverMarginals(t *testing.T) {
	// With a large population and generous epsilon every protocol must
	// reconstruct 2-way marginals accurately on a small domain.
	records := skewedRecords(150000, 5, 1)
	cfg := Config{D: 5, K: 2, Epsilon: 3, OptimizedPRR: true}
	budgets := map[Kind]float64{
		InpRR:  0.05,
		InpPS:  0.08,
		InpHT:  0.05,
		MargRR: 0.05,
		MargPS: 0.05,
		MargHT: 0.06,
	}
	for kind, budget := range budgets {
		tv := runAccuracy(t, kind, cfg, records, 2, 7)
		if tv > budget {
			t.Errorf("%v mean TV = %v, want < %v", kind, tv, budget)
		}
	}
}

func TestSubMarginalQueries(t *testing.T) {
	// Protocols collected for k=2 must answer 1-way marginals too.
	records := skewedRecords(120000, 6, 2)
	cfg := Config{D: 6, K: 2, Epsilon: 3, OptimizedPRR: true}
	for _, kind := range AllKinds() {
		tv := runAccuracy(t, kind, cfg, records, 1, 11)
		if tv > 0.08 {
			t.Errorf("%v 1-way TV = %v, want < 0.08", kind, tv)
		}
	}
}

func TestBetaValidation(t *testing.T) {
	records := skewedRecords(1000, 5, 3)
	cfg := Config{D: 5, K: 2, Epsilon: 1}
	for _, kind := range AllKinds() {
		p, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := Run(p, records, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := agg.Estimate(0); err == nil {
			t.Errorf("%v accepted empty beta", kind)
		}
		if _, err := agg.Estimate(1 << 6); err == nil {
			t.Errorf("%v accepted out-of-domain beta", kind)
		}
		if _, err := agg.Estimate(0b111); err == nil {
			t.Errorf("%v accepted |beta| > k", kind)
		}
		if _, err := agg.Estimate(0b11); err != nil {
			t.Errorf("%v rejected valid beta: %v", kind, err)
		}
	}
}

func TestEmptyAggregatorErrors(t *testing.T) {
	cfg := Config{D: 4, K: 2, Epsilon: 1}
	for _, kind := range AllKinds() {
		p, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.NewAggregator().Estimate(0b11); err == nil {
			t.Errorf("%v empty aggregator should refuse Estimate", kind)
		}
	}
}

func TestMergeMatchesSequential(t *testing.T) {
	// Consuming reports through two shards and merging must equal one
	// aggregator consuming everything.
	cfg := Config{D: 5, K: 2, Epsilon: 2}
	records := skewedRecords(4000, 5, 4)
	for _, kind := range AllKinds() {
		p, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		client := p.NewClient()
		r := rng.New(99)
		reports := make([]Report, len(records))
		for i, rec := range records {
			rep, err := client.Perturb(rec, r)
			if err != nil {
				t.Fatal(err)
			}
			reports[i] = rep
		}
		whole := p.NewAggregator()
		left := p.NewAggregator()
		right := p.NewAggregator()
		for i, rep := range reports {
			if err := whole.Consume(rep); err != nil {
				t.Fatal(err)
			}
			var err error
			if i%2 == 0 {
				err = left.Consume(rep)
			} else {
				err = right.Consume(rep)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := left.Merge(right); err != nil {
			t.Fatal(err)
		}
		if left.N() != whole.N() {
			t.Fatalf("%v merge N = %d, want %d", kind, left.N(), whole.N())
		}
		a, err := whole.Estimate(0b11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := left.Estimate(0b11)
		if err != nil {
			t.Fatal(err)
		}
		tv, err := a.TVDistance(b)
		if err != nil {
			t.Fatal(err)
		}
		if tv > 1e-12 {
			t.Errorf("%v merged estimate differs from sequential (TV=%v)", kind, tv)
		}
	}
}

func TestMergeRejectsWrongType(t *testing.T) {
	cfg := Config{D: 4, K: 2, Epsilon: 1}
	var aggs []Aggregator
	for _, kind := range AllKinds() {
		p, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		aggs = append(aggs, p.NewAggregator())
	}
	for i, a := range aggs {
		other := aggs[(i+1)%len(aggs)]
		if err := a.Merge(other); err == nil {
			t.Errorf("aggregator %d merged a different protocol's aggregator", i)
		}
	}
}

func TestClientRejectsOutOfDomainRecord(t *testing.T) {
	cfg := Config{D: 4, K: 2, Epsilon: 1}
	r := rng.New(5)
	for _, kind := range AllKinds() {
		p, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.NewClient().Perturb(1<<5, r); err == nil {
			t.Errorf("%v accepted out-of-domain record", kind)
		}
	}
}

func TestConsumeRejectsMalformedReports(t *testing.T) {
	cfg := Config{D: 4, K: 2, Epsilon: 1}
	cases := map[Kind]Report{
		InpRR:  {Bits: []uint64{1, 2, 3}},         // wrong word count
		InpPS:  {Index: 1 << 10},                  // out-of-range cell
		InpHT:  {Index: 0b1111, Sign: 1},          // |alpha| > k
		MargRR: {Beta: 0b1111, Bits: []uint64{0}}, // not a k-way marginal
		MargPS: {Beta: 0b0011, Index: 99},         // cell out of range
		MargHT: {Beta: 0b0011, Index: 0, Sign: 1}, // constant coefficient
	}
	for kind, rep := range cases {
		p, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.NewAggregator().Consume(rep); err == nil {
			t.Errorf("%v accepted malformed report %+v", kind, rep)
		}
	}
	// Bad signs for the HT protocols.
	pht, _ := New(InpHT, cfg)
	if err := pht.NewAggregator().Consume(Report{Index: 0b0011, Sign: 0}); err == nil {
		t.Error("InpHT accepted sign 0")
	}
	mht, _ := New(MargHT, cfg)
	if err := mht.NewAggregator().Consume(Report{Beta: 0b0011, Index: 1, Sign: 3}); err == nil {
		t.Error("MargHT accepted sign 3")
	}
}

func TestRunErrors(t *testing.T) {
	cfg := Config{D: 4, K: 2, Epsilon: 1}
	p, err := New(InpHT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, nil, 1, 2); err == nil {
		t.Error("empty records should error")
	}
	if _, err := Run(p, []uint64{1 << 10}, 1, 2); err == nil {
		t.Error("out-of-domain record should surface from the runner")
	}
}

func TestRunWorkerCounts(t *testing.T) {
	cfg := Config{D: 4, K: 2, Epsilon: 2}
	records := skewedRecords(100, 4, 6)
	p, err := New(MargPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 200} {
		agg, err := Run(p, records, 7, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if agg.N() != len(records) {
			t.Errorf("workers=%d consumed %d reports", workers, agg.N())
		}
	}
}

// TestRunTotalBits pins a run's communication cost: CommunicationBits
// (d+1 for InpHT) over every user the run consumed.
func TestRunTotalBits(t *testing.T) {
	cfg := Config{D: 8, K: 2, Epsilon: 1}
	records := skewedRecords(500, 8, 8)
	p, err := New(InpHT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Run(p, records, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.CommunicationBits()*agg.N(), 9*500; got != want {
		t.Errorf("total bits = %d, want %d", got, want)
	}
}

func TestInpRRBatchMatchesPerReportStatistically(t *testing.T) {
	// The binomial fast path and the per-report path must estimate the
	// same marginal to within sampling noise.
	records := skewedRecords(40000, 4, 9)
	cfg := Config{D: 4, K: 2, Epsilon: 2, OptimizedPRR: true}
	p, err := NewInpRR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per-report path.
	slow := p.NewAggregator()
	client := p.NewClient()
	r := rng.New(10)
	for _, rec := range records {
		rep, err := client.Perturb(rec, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := slow.Consume(rep); err != nil {
			t.Fatal(err)
		}
	}
	// Batch path.
	fast := p.NewAggregator()
	if err := fast.(BatchSimulator).SimulateBatch(records, rng.New(11)); err != nil {
		t.Fatal(err)
	}
	exact, err := marginal.FromRecords(records, 0b11)
	if err != nil {
		t.Fatal(err)
	}
	for name, agg := range map[string]Aggregator{"slow": slow, "fast": fast} {
		got, err := agg.Estimate(0b11)
		if err != nil {
			t.Fatal(err)
		}
		tv, err := got.TVDistance(exact)
		if err != nil {
			t.Fatal(err)
		}
		if tv > 0.05 {
			t.Errorf("%s path TV = %v, want < 0.05", name, tv)
		}
	}
}

func TestUnbiasednessAcrossRepeats(t *testing.T) {
	// Averaging estimates across independent runs must converge to the
	// truth faster than a single run (the estimators are unbiased).
	if testing.Short() {
		t.Skip("statistical repeat test")
	}
	records := skewedRecords(20000, 4, 12)
	exact, err := marginal.FromRecords(records, 0b0101)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{D: 4, K: 2, Epsilon: 1, OptimizedPRR: true}
	for _, kind := range []Kind{InpHT, MargPS, InpPS} {
		p, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		avg, err := marginal.New(0b0101)
		if err != nil {
			t.Fatal(err)
		}
		const repeats = 20
		for rep := 0; rep < repeats; rep++ {
			agg, err := Run(p, records, uint64(1000+rep), 4)
			if err != nil {
				t.Fatal(err)
			}
			got, err := agg.Estimate(0b0101)
			if err != nil {
				t.Fatal(err)
			}
			if err := avg.Add(got); err != nil {
				t.Fatal(err)
			}
		}
		avg.Scale(1.0 / repeats)
		tv, err := avg.TVDistance(exact)
		if err != nil {
			t.Fatal(err)
		}
		if tv > 0.03 {
			t.Errorf("%v mean-of-%d-runs TV = %v, want < 0.03 (bias?)", kind, repeats, tv)
		}
	}
}

func TestMargIndexSupersets(t *testing.T) {
	mi := newMargIndex(5, 2)
	supers := mi.supersetsOf(0b00001)
	if len(supers) != 4 {
		t.Fatalf("attribute 0 should appear in 4 of the C(5,2) marginals, got %d", len(supers))
	}
	for _, pos := range supers {
		if !bitops.IsSubset(0b00001, mi.masks[pos]) {
			t.Errorf("mask %b is not a superset", mi.masks[pos])
		}
	}
}

func TestUniformFallbackWhenMarginalUnsampled(t *testing.T) {
	// A marginal-based aggregator with a single report can still answer
	// for every marginal: unsampled ones fall back to uniform.
	cfg := Config{D: 6, K: 2, Epsilon: 1}
	p, err := New(MargPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	client := p.NewClient()
	rep, err := client.Perturb(0b101010, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Consume(rep); err != nil {
		t.Fatal(err)
	}
	for _, beta := range bitops.MasksWithExactlyK(6, 2) {
		tab, err := agg.Estimate(beta)
		if err != nil {
			t.Fatalf("beta=%b: %v", beta, err)
		}
		if beta != rep.Beta {
			for _, c := range tab.Cells {
				if math.Abs(c-0.25) > 1e-12 {
					t.Fatalf("unsampled marginal %b should be uniform, got %v", beta, tab.Cells)
				}
			}
		}
	}
}

func TestInpHTScaledCoefficientZeroAlpha(t *testing.T) {
	cfg := Config{D: 4, K: 2, Epsilon: 1}
	p, err := NewInpHT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator().(*inpHTAgg)
	if agg.ScaledCoefficient(0) != 1 {
		t.Error("alpha=0 must be exactly 1")
	}
	if agg.ScaledCoefficient(0b11) != 0 {
		t.Error("unsampled coefficient must be 0")
	}
}
