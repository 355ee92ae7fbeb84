package em

import (
	"bytes"
	"math"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/vec"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(core.Config{D: 0, K: 1, Epsilon: 1}); err == nil {
		t.Error("d=0 should error")
	}
	if _, err := New(core.Config{D: 4, K: 2, Epsilon: -1}); err == nil {
		t.Error("negative epsilon should error")
	}
	p, err := New(core.Config{D: 4, K: 2, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "InpEM" || p.CommunicationBits() != 4 {
		t.Errorf("name/comm wrong: %s, %d", p.Name(), p.CommunicationBits())
	}
	cc := p.Config()
	if cc.D != 4 || cc.K != 2 || cc.Epsilon != 1 {
		t.Errorf("core config adaptation wrong: %+v", cc)
	}
}

func TestFlipProbability(t *testing.T) {
	// eps=4 over d=4 bits: per-bit eps=1, keep = e/(1+e).
	p, _ := New(core.Config{D: 4, K: 2, Epsilon: 4})
	want := 1 - math.E/(1+math.E)
	if flip := 1 - p.rr.P; math.Abs(flip-want) > 1e-12 {
		t.Errorf("flip = %v, want %v", flip, want)
	}
}

func TestChannelRowsSumToOne(t *testing.T) {
	a := Channel(3, 0.3)
	size := len(a)
	// Columns are distributions over observations: for fixed truth x,
	// sum over y of P(y|x) = 1.
	for x := 0; x < size; x++ {
		var s float64
		for y := 0; y < size; y++ {
			s += a[y][x]
		}
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("column %d sums to %v", x, s)
		}
	}
	// Symmetric channel: A[y][x] depends only on popcount(x^y).
	if a[0b01][0b00] != a[0b00][0b01] {
		t.Error("channel should be symmetric")
	}
}

func TestDecodeNoiselessChannel(t *testing.T) {
	// With flip=0 the channel is the identity and EM must return the
	// observation immediately.
	observed := []float64{0.5, 0.25, 0.125, 0.125}
	theta, iters, err := Decode(observed, Channel(2, 0), 1e-9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range observed {
		if math.Abs(theta[i]-observed[i]) > 1e-6 {
			t.Errorf("theta[%d] = %v, want %v (iters=%d)", i, theta[i], observed[i], iters)
		}
	}
}

func TestDecodeRecoversThroughNoisyChannel(t *testing.T) {
	// Push a known distribution through a moderately noisy channel
	// analytically and check EM inverts it.
	truth := []float64{0.6, 0.2, 0.15, 0.05}
	ch := Channel(2, 0.2)
	observed := make([]float64, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			observed[y] += ch[y][x] * truth[x]
		}
	}
	theta, _, err := Decode(observed, ch, 1e-10, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if tv := vec.TVDist(theta, truth); tv > 0.01 {
		t.Errorf("EM recovery TV = %v, want < 0.01 (theta=%v)", tv, theta)
	}
}

func TestDecodeSizeMismatch(t *testing.T) {
	if _, _, err := Decode([]float64{1}, Channel(2, 0.1), 1e-5, 10); err == nil {
		t.Error("size mismatch should error")
	}
	if _, _, err := Decode(nil, nil, 1e-5, 10); err == nil {
		t.Error("empty observed should error")
	}
}

func TestEndToEndAccuracyGoodBudget(t *testing.T) {
	// With a healthy per-bit budget InpEM should produce a reasonable
	// (if not great) 2-way marginal.
	ds := dataset.NewTaxi(60000, 1)
	p, err := New(core.Config{D: 8, K: 2, Epsilon: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, ds.Records, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	beta, _ := ds.Mask("CC", "Tip")
	agg := res.(*Aggregator)
	dec, err := agg.EstimateDetailed(beta)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := ds.Marginal(beta)
	tv, err := dec.Table.TVDistance(exact)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.05 {
		t.Errorf("InpEM TV = %v, want < 0.05 at eps=8", tv)
	}
	// Failed means at most one EM step: not failing is several steps.
	if dec.Failed {
		t.Error("should not fail with a generous budget")
	}
}

func TestFailureModeAtTinyEpsilon(t *testing.T) {
	// Table 3's regime: eps=0.1, d=16 fails universally — the per-bit
	// flip probability is within ~0.0016 of 1/2 and EM stalls at the
	// uniform prior.
	ds := dataset.NewTaxi(1<<18, 2)
	big, err := dataset.DuplicateColumns(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(core.Config{D: 16, K: 2, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, big.Records, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	agg := res.(*Aggregator)
	failures := 0
	betas := marginal.AllKWay(16, 2)[:20]
	for _, beta := range betas {
		dec, err := agg.EstimateDetailed(beta)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Failed {
			failures++
		}
	}
	if failures < len(betas)*3/4 {
		t.Errorf("expected near-universal failure at eps=0.1 d=16, got %d/%d", failures, len(betas))
	}
}

func TestAggregatorValidation(t *testing.T) {
	p, _ := New(core.Config{D: 4, K: 2, Epsilon: 1})
	agg := p.NewAggregator().(*Aggregator)
	if err := agg.Consume(core.Report{Index: 1 << 6}); err == nil {
		t.Error("out-of-domain report should error")
	}
	if _, err := agg.EstimateDetailed(0b11); err == nil {
		t.Error("empty aggregator should error")
	}
	if err := agg.Consume(core.Report{Index: 0b1010}); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.EstimateDetailed(0); err == nil {
		t.Error("empty beta should error")
	}
	if _, err := agg.EstimateDetailed(0b111); err == nil {
		t.Error("beta larger than k should error")
	}
	// Merging a foreign aggregator fails.
	cp, _ := core.New(core.InpHT, core.Config{D: 4, K: 2, Epsilon: 1})
	if err := agg.Merge(cp.NewAggregator()); err == nil {
		t.Error("foreign merge should error")
	}
}

func TestMergeCombinesReports(t *testing.T) {
	p, _ := New(core.Config{D: 4, K: 2, Epsilon: 1})
	a := p.NewAggregator().(*Aggregator)
	b := p.NewAggregator().(*Aggregator)
	r := rng.New(1)
	c := p.NewClient()
	for i := 0; i < 10; i++ {
		rep, _ := c.Perturb(uint64(i%16), r)
		if i < 5 {
			_ = a.Consume(rep)
		} else {
			_ = b.Consume(rep)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 10 {
		t.Errorf("merged N = %d, want 10", a.N())
	}
}

func TestClientRejectsOutOfDomain(t *testing.T) {
	p, _ := New(core.Config{D: 4, K: 2, Epsilon: 1})
	if _, err := p.NewClient().Perturb(1<<5, rng.New(1)); err == nil {
		t.Error("out-of-domain record should error")
	}
}

func BenchmarkEMDecode2Way(b *testing.B) {
	ch := Channel(2, 0.3)
	observed := []float64{0.3, 0.3, 0.2, 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(observed, ch, 1e-6, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	p, err := New(core.Config{D: 4, K: 2, Epsilon: 4})
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	client := p.NewClient()
	r := rng.New(5)
	for i := 0; i < 300; i++ {
		rep, err := client.Perturb(uint64(i%16), r)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Consume(rep); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := agg.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored := p.NewAggregator()
	if err := restored.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if restored.N() != agg.N() {
		t.Fatalf("restored N = %d, want %d", restored.N(), agg.N())
	}
	again, err := restored.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatal("re-marshaled state differs")
	}
	want, err := agg.Estimate(0b11)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Estimate(0b11)
	if err != nil {
		t.Fatal(err)
	}
	for c := range want.Cells {
		if math.Float64bits(got.Cells[c]) != math.Float64bits(want.Cells[c]) {
			t.Fatalf("cell %d: %v vs %v", c, got.Cells[c], want.Cells[c])
		}
	}
	// A mask outside the domain must be rejected and leave the receiver
	// untouched.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] = 0x7F
	dirty := p.NewAggregator()
	if err := dirty.UnmarshalState(bad); err == nil {
		t.Fatal("out-of-domain report mask accepted")
	}
	if dirty.N() != 0 {
		t.Fatalf("failed restore left N = %d", dirty.N())
	}
}
