package freqoracle

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/wire"
)

const ln3 = 1.0986122886681098

func TestNewOLHValidation(t *testing.T) {
	if _, err := NewOLH(core.Config{D: 0, K: 1, Epsilon: 1}); err == nil {
		t.Error("d=0 should error")
	}
	if _, err := NewOLH(core.Config{D: 20, K: 2, Epsilon: 1}); err == nil {
		t.Error("d over oracle limit should error")
	}
	o, err := NewOLH(core.Config{D: 8, K: 2, Epsilon: ln3})
	if err != nil {
		t.Fatal(err)
	}
	// g = round(e^eps) + 1 = 4 at eps = ln 3.
	if o.g != 4 {
		t.Errorf("g = %d, want 4", o.g)
	}
	if o.Name() != "InpOLH" {
		t.Errorf("name = %q", o.Name())
	}
	if o.CommunicationBits() != 64+2 {
		t.Errorf("comm bits = %d, want 66", o.CommunicationBits())
	}
}

func TestOLHEndToEnd(t *testing.T) {
	ds, err := dataset.NewSkewed(60000, 6, 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOLH(core.Config{D: 6, K: 2, Epsilon: ln3})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := core.Run(o, ds.Records, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := marginal.MeanTV(agg, ds.Records, marginal.AllKWay(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.06 {
		t.Errorf("OLH mean 2-way TV = %v, want < 0.06", tv)
	}
}

func TestOLHFrequencySums(t *testing.T) {
	// Unbiased frequency estimates over the whole domain should sum to
	// approximately 1.
	ds, err := dataset.NewSkewed(40000, 5, 0.7, 2)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOLH(core.Config{D: 5, K: 1, Epsilon: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(o, ds.Records, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	all, err := res.(*olhAgg).EstimateAll()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, f := range all {
		sum += f
	}
	if math.Abs(sum-1) > 0.1 {
		t.Errorf("estimated frequencies sum to %v, want ~1", sum)
	}
}

func TestOLHAggregatorValidation(t *testing.T) {
	o, _ := NewOLH(core.Config{D: 4, K: 2, Epsilon: 1})
	agg := o.NewAggregator()
	if err := agg.Consume(core.Report{Beta: 1, Index: 99}); err == nil {
		t.Error("out-of-range value should error")
	}
	if _, err := agg.Estimate(0b11); err == nil {
		t.Error("empty aggregator should error")
	}
	if _, err := agg.(*olhAgg).EstimateAll(); err == nil {
		t.Error("empty EstimateAll should error")
	}
	c, _ := core.New(core.InpHT, core.Config{D: 4, K: 2, Epsilon: 1})
	if err := agg.Merge(c.NewAggregator()); err == nil {
		t.Error("foreign merge should error")
	}
	if _, err := o.NewClient().Perturb(1<<5, rng.New(1)); err == nil {
		t.Error("out-of-domain record should error")
	}
}

func TestOLHCacheInvalidation(t *testing.T) {
	o, _ := NewOLH(core.Config{D: 3, K: 1, Epsilon: 2})
	agg := o.NewAggregator().(*olhAgg)
	client := o.NewClient()
	r := rng.New(9)
	rep, _ := client.Perturb(3, r)
	if err := agg.Consume(rep); err != nil {
		t.Fatal(err)
	}
	first, err := agg.EstimateAll()
	if err != nil {
		t.Fatal(err)
	}
	_ = first
	rep2, _ := client.Perturb(5, r)
	if err := agg.Consume(rep2); err != nil {
		t.Fatal(err)
	}
	if agg.decoded != nil {
		t.Error("cache should be invalidated by Consume")
	}
}

func TestNewHCMSValidation(t *testing.T) {
	if _, err := NewHCMS(HCMSConfig{D: 8, K: 2, Epsilon: 1, W: 100}); err == nil {
		t.Error("non-power-of-two width should error")
	}
	if _, err := NewHCMS(HCMSConfig{D: 8, K: 2, Epsilon: 1, G: -1}); err == nil {
		t.Error("negative g should error")
	}
	if _, err := NewHCMS(HCMSConfig{D: 20, K: 2, Epsilon: 1}); err == nil {
		t.Error("d over oracle limit should error")
	}
	h, err := NewHCMS(HCMSConfig{D: 8, K: 2, Epsilon: ln3})
	if err != nil {
		t.Fatal(err)
	}
	if h.cfg.G != 5 || h.cfg.W != 256 {
		t.Errorf("defaults not applied: g=%d w=%d", h.cfg.G, h.cfg.W)
	}
	if h.Name() != "InpHTCMS" {
		t.Errorf("name = %q", h.Name())
	}
	// 3 bits rows (g=5), 8 bits coefficient (w=256), 1 bit payload.
	if h.CommunicationBits() != 3+8+1 {
		t.Errorf("comm bits = %d, want 12", h.CommunicationBits())
	}
}

func TestHCMSEndToEnd(t *testing.T) {
	ds, err := dataset.NewSkewed(200000, 6, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHCMS(HCMSConfig{D: 6, K: 2, Epsilon: ln3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := core.Run(h, ds.Records, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := marginal.MeanTV(agg, ds.Records, marginal.AllKWay(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	// The sketch is designed for heavy hitters, not low-frequency cells:
	// it should be in the right ballpark but is not expected to match
	// the direct protocols (Figure 10's observation).
	if tv > 0.15 {
		t.Errorf("HCMS mean 2-way TV = %v, want < 0.15", tv)
	}
}

func TestHCMSHeavyHitter(t *testing.T) {
	// A dominant item should be detected with roughly the right
	// frequency.
	r := rng.New(11)
	records := make([]uint64, 100000)
	for i := range records {
		if r.Bernoulli(0.4) {
			records[i] = 13
		} else {
			records[i] = r.Uint64n(256)
		}
	}
	h, err := NewHCMS(HCMSConfig{D: 8, K: 1, Epsilon: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(h, records, 13, 4)
	if err != nil {
		t.Fatal(err)
	}
	all, err := res.(*hcmsAgg).EstimateAll()
	if err != nil {
		t.Fatal(err)
	}
	f := all[13]
	// True frequency is 0.4 + 0.6/256.
	if math.Abs(f-0.4) > 0.05 {
		t.Errorf("heavy hitter estimate = %v, want ~0.4", f)
	}
}

func TestHCMSAggregatorValidation(t *testing.T) {
	h, _ := NewHCMS(HCMSConfig{D: 4, K: 2, Epsilon: 1, G: 3, W: 16})
	agg := h.NewAggregator()
	if err := agg.Consume(core.Report{Beta: 7, Index: 0, Sign: 1}); err == nil {
		t.Error("row out of range should error")
	}
	if err := agg.Consume(core.Report{Beta: 0, Index: 99, Sign: 1}); err == nil {
		t.Error("coefficient out of range should error")
	}
	if err := agg.Consume(core.Report{Beta: 0, Index: 1, Sign: 0}); err == nil {
		t.Error("sign 0 should error")
	}
	if _, err := agg.Estimate(0b11); err == nil {
		t.Error("empty aggregator should error")
	}
	c, _ := core.New(core.InpHT, core.Config{D: 4, K: 2, Epsilon: 1})
	if err := agg.Merge(c.NewAggregator()); err == nil {
		t.Error("foreign merge should error")
	}
}

// TestHCMSMergeMatchesSequential: a merge of two halves estimates like
// the whole, and the sketch folds: unmerging a half restores the other to
// the byte, and a copy marshals like its source.
func TestHCMSMergeMatchesSequential(t *testing.T) {
	h, _ := NewHCMS(HCMSConfig{D: 5, K: 2, Epsilon: 2, Seed: 5})
	client := h.NewClient()
	r := rng.New(17)
	var reports []core.Report
	for i := 0; i < 2000; i++ {
		rep, err := client.Perturb(uint64(i%32), r)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	whole := h.NewAggregator()
	left := h.NewAggregator()
	right := h.NewAggregator()
	for i, rep := range reports {
		_ = whole.Consume(rep)
		if i%2 == 0 {
			_ = left.Consume(rep)
		} else {
			_ = right.Consume(rep)
		}
	}
	leftState, err := left.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if err := left.Merge(right); err != nil {
		t.Fatal(err)
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
		t.Errorf("merged estimate differs from sequential (TV=%v)", tv)
	}
	if err := core.CheckFolds(h); err != nil {
		t.Fatal(err)
	}
	if err := left.(core.Folder).Unmerge(right); err != nil {
		t.Fatal(err)
	}
	if got, _ := left.MarshalState(); !bytes.Equal(got, leftState) {
		t.Error("merge then unmerge did not restore the state")
	}
	cp := h.NewAggregator().(core.Folder)
	if err := cp.CopyStateFrom(whole); err != nil {
		t.Fatal(err)
	}
	want, _ := whole.MarshalState()
	if got, _ := cp.MarshalState(); !bytes.Equal(got, want) {
		t.Error("a copy marshals differently from its source")
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct {
		m    uint64
		want int
	}{{2, 1}, {3, 2}, {4, 2}, {5, 3}, {256, 8}}
	for _, c := range cases {
		if got := bitsFor(c.m); got != c.want {
			t.Errorf("bitsFor(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

// stateRoundTrip drives one oracle's state codec: populate, marshal,
// restore into a fresh aggregator, and require canonical bytes plus
// bit-identical frequency estimates.
func stateRoundTrip(t *testing.T, p core.Protocol) {
	t.Helper()
	agg := p.NewAggregator()
	client := p.NewClient()
	r := rng.New(9)
	for i := 0; i < 400; i++ {
		rep, err := client.Perturb(uint64(i%32), r)
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
}

func TestOLHStateRoundTrip(t *testing.T) {
	p, err := NewOLH(core.Config{D: 5, K: 2, Epsilon: ln3})
	if err != nil {
		t.Fatal(err)
	}
	stateRoundTrip(t, p)
}

func TestHCMSStateRoundTrip(t *testing.T) {
	p, err := NewHCMS(HCMSConfig{D: 5, K: 2, Epsilon: ln3, G: 3, W: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	stateRoundTrip(t, p)
}

// TestStateGoldenBytes pins the HCMS state bytes (kind 9) the way core's
// test of the same name pins the six core protocols': the digest was
// recorded at 3f8878c, when this package wrote its own codec, and a
// sequential aggregator and the merge of a 4-shard one must both still
// marshal to it.
func TestStateGoldenBytes(t *testing.T) {
	const golden = "0b60bdd529e54709be3e6fa6452364a1a033540002d236cc83757e4bc83d5d9f"
	p, err := NewHCMS(HCMSConfig{D: 5, K: 2, Epsilon: ln3, G: 3, W: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	client := p.NewClient()
	r := rng.New(97)
	reps := make([]core.Report, 2000)
	for i := range reps {
		if reps[i], err = client.Perturb(uint64(i%32), r); err != nil {
			t.Fatal(err)
		}
	}
	seq := p.NewAggregator()
	if err := seq.ConsumeBatch(reps); err != nil {
		t.Fatal(err)
	}
	sh := core.NewSharded(p, 4)
	for lo := 0; lo < len(reps); lo += 125 {
		if err := sh.ConsumeBatch(reps[lo : lo+125]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, agg := range map[string]core.Aggregator{"sequential": seq, "sharded": snap} {
		blob, err := agg.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != golden {
			t.Errorf("%s HCMS state (%d bytes) hashes to %s, want %s", name, len(blob), got, golden)
		}
	}
}

// TestUnmarshalStateRejectsWrappingSums: four counts of 2^62 in one
// sketch row sum to the 0 users the blob claims for it only modulo 2^64;
// see core's test of the same name.
func TestUnmarshalStateRejectsWrappingSums(t *testing.T) {
	p, err := NewHCMS(HCMSConfig{D: 5, K: 2, Epsilon: ln3, G: 3, W: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 32)
	counts[0], counts[1], counts[2], counts[3] = 1<<62, 1<<62, 1<<62, 1<<62
	e := wire.NewStateEncoder(stateKindHCMS, stateVersion)
	e.Uvarint(0)
	e.Counts(make([]int, 3))
	for row := 0; row < 3; row++ {
		e.Int64s(make([]int64, 32))
		e.Int64s(counts)
		counts = make([]int64, 32)
	}
	agg := p.NewAggregator()
	if err := agg.UnmarshalState(e.Bytes()); err == nil {
		t.Fatal("state with a wrapping per-row count total restored")
	}
	want, _ := p.NewAggregator().MarshalState()
	if got, _ := agg.MarshalState(); !bytes.Equal(got, want) {
		t.Fatal("refused state changed the receiver")
	}
}
