package efronstein

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/vec"
	"ldpmarginals/internal/wire"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBasisOrthonormal(t *testing.T) {
	for _, r := range []int{2, 3, 4, 5, 7, 16} {
		chi, err := Basis(r)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < r; j++ {
			for k := 0; k < r; k++ {
				var dot float64
				for x := 0; x < r; x++ {
					dot += chi[j][x] * chi[k][x]
				}
				dot /= float64(r)
				want := 0.0
				if j == k {
					want = 1
				}
				if !almostEq(dot, want, 1e-10) {
					t.Errorf("r=%d: <chi_%d, chi_%d> = %v, want %v", r, j, k, dot, want)
				}
			}
		}
		// chi_0 is the constant 1.
		for x := 0; x < r; x++ {
			if chi[0][x] != 1 {
				t.Errorf("r=%d: chi_0[%d] = %v", r, x, chi[0][x])
			}
		}
	}
	if _, err := Basis(1); err == nil {
		t.Error("r=1 should error")
	}
}

func TestBasisReducesToRademacherForBinary(t *testing.T) {
	// For r=2 the non-constant basis function is +-1 — the Hadamard
	// character — up to sign.
	chi, err := Basis(2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(math.Abs(chi[1][0]), 1, 1e-12) || !almostEq(math.Abs(chi[1][1]), 1, 1e-12) {
		t.Errorf("binary basis should be +-1, got %v", chi[1])
	}
	if chi[1][0]*chi[1][1] > 0 {
		t.Error("binary basis values should have opposite signs")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Cardinalities: nil, K: 1, Epsilon: 1}); err == nil {
		t.Error("no attributes should error")
	}
	if _, err := New(Config{Cardinalities: []int{3, 4}, K: 0, Epsilon: 1}); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := New(Config{Cardinalities: []int{3, 4}, K: 3, Epsilon: 1}); err == nil {
		t.Error("k>d should error")
	}
	if _, err := New(Config{Cardinalities: []int{3}, K: 1, Epsilon: 0}); err == nil {
		t.Error("eps=0 should error")
	}
	if _, err := New(Config{Cardinalities: []int{1}, K: 1, Epsilon: 1}); err == nil {
		t.Error("cardinality 1 should error")
	}
}

func TestCoefficientEnumeration(t *testing.T) {
	// Cardinalities (3, 4), k=2: singles 2 + 3, pairs 2*3 => 11.
	p, err := New(Config{Cardinalities: []int{3, 4}, K: 2, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.coeffs); got != 11 {
		t.Errorf("|T| = %d, want 11", got)
	}
	if p.Name() != "InpES" {
		t.Errorf("name = %q", p.Name())
	}
	// Communication: ceil(log2 11) + 1 = 4 + 1.
	if got := p.CommunicationBits(); got != 5 {
		t.Errorf("comm bits = %d, want 5", got)
	}
}

func TestEndToEndCategoricalAccuracy(t *testing.T) {
	cards := []int{4, 3, 5}
	cat, err := dataset.NewCategoricalCorrelated(200000, cards, 1)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := cat.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Cardinalities: cards, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	run, err := core.Run(p, bin.Records, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	agg := run.(*Aggregator)
	for _, attrs := range [][]int{{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}} {
		got, err := agg.EstimateCategorical(attrs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ExactCategorical(cat, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if tv := vec.TVDist(got, want); tv > 0.09 {
			t.Errorf("attrs %v: TV = %v, want < 0.09", attrs, tv)
		}
	}
}

func TestEstimateViaBinaryMaskMatchesCategorical(t *testing.T) {
	cards := []int{3, 4}
	cat, err := dataset.NewCategoricalCorrelated(100000, cards, 2)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := cat.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Cardinalities: cards, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	run, err := core.Run(p, bin.Records, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	agg := run.(*Aggregator)
	mask, err := cat.MaskFor(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := agg.Estimate(mask)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := agg.EstimateCategorical([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Each valid (v0, v1) pair must map to the same value via the table.
	for v0 := 0; v0 < 3; v0++ {
		for v1 := 0; v1 < 4; v1++ {
			full := uint64(v0) | uint64(v1)<<2
			got := tab.Cell(full)
			want := direct[v0+3*v1]
			if !almostEq(got, want, 1e-12) {
				t.Errorf("cell (%d,%d): table %v vs direct %v", v0, v1, got, want)
			}
		}
	}
	// The paper's comparison: the encoded-mask estimate aligns with the
	// exact binary marginal of the encoded dataset.
	exact, err := bin.Marginal(mask)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := tab.TVDistance(exact)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.05 {
		t.Errorf("binary-mask TV = %v, want < 0.05", tv)
	}
}

func TestEstimateRejectsMisalignedMask(t *testing.T) {
	p, err := New(Config{Cardinalities: []int{3, 4}, K: 2, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator().(*Aggregator)
	rep, err := p.NewClient().Perturb(0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Consume(rep); err != nil {
		t.Fatal(err)
	}
	// Bit 0 alone is half of attribute 0's group.
	if _, err := agg.Estimate(0b1); err == nil {
		t.Error("misaligned mask should error")
	}
}

func TestAggregatorValidation(t *testing.T) {
	p, _ := New(Config{Cardinalities: []int{3, 3}, K: 1, Epsilon: 1})
	agg := p.NewAggregator().(*Aggregator)
	if err := agg.Consume(core.Report{Index: 999, Sign: 1}); err == nil {
		t.Error("out-of-range coefficient should error")
	}
	if err := agg.Consume(core.Report{Index: 0, Sign: 0}); err == nil {
		t.Error("sign 0 should error")
	}
	if _, err := agg.EstimateCategorical([]int{0}); err == nil {
		t.Error("empty aggregator should error")
	}
	_ = agg.Consume(core.Report{Index: 0, Sign: 1})
	if _, err := agg.EstimateCategorical([]int{0, 1}); err == nil {
		t.Error("marginal above k should error")
	}
	if _, err := agg.EstimateCategorical([]int{0, 0}); err == nil {
		t.Error("repeated attribute should error")
	}
	if _, err := agg.EstimateCategorical([]int{5}); err == nil {
		t.Error("unknown attribute should error")
	}
	other, _ := core.New(core.InpHT, core.Config{D: 4, K: 1, Epsilon: 1})
	if err := agg.Merge(other.NewAggregator()); err == nil {
		t.Error("foreign merge should error")
	}
}

func TestClientRejectsInvalidEncoding(t *testing.T) {
	// Cardinality 3 uses 2 bits; value 3 is an invalid encoding.
	p, _ := New(Config{Cardinalities: []int{3}, K: 1, Epsilon: 1})
	if _, err := p.NewClient().Perturb(0b11, rng.New(1)); err == nil {
		t.Error("invalid encoded value should error")
	}
}

func TestMergeMatchesSequential(t *testing.T) {
	cards := []int{3, 4}
	p, _ := New(Config{Cardinalities: cards, K: 2, Epsilon: 2})
	client := p.NewClient()
	r := rng.New(5)
	whole := p.NewAggregator()
	left := p.NewAggregator()
	right := p.NewAggregator()
	for i := 0; i < 3000; i++ {
		rec := uint64(i%3) | uint64(i%4)<<2
		rep, err := client.Perturb(rec, r)
		if err != nil {
			t.Fatal(err)
		}
		_ = whole.Consume(rep)
		if i%2 == 0 {
			_ = left.Consume(rep)
		} else {
			_ = right.Consume(rep)
		}
	}
	if err := left.Merge(right); err != nil {
		t.Fatal(err)
	}
	a, err := whole.(*Aggregator).EstimateCategorical([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := left.(*Aggregator).EstimateCategorical([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if vec.TVDist(a, b) > 1e-12 {
		t.Error("merged estimate differs from sequential")
	}
}

func TestMarginalMassNearOne(t *testing.T) {
	cards := []int{5, 4}
	cat, err := dataset.NewCategoricalCorrelated(120000, cards, 3)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := cat.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Cardinalities: cards, K: 2, Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	run, err := core.Run(p, bin.Records, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := run.(*Aggregator).EstimateCategorical([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// The constant coefficient guarantees the estimate integrates to 1.
	if !almostEq(vec.Sum(dist), 1, 1e-9) {
		t.Errorf("estimated mass = %v", vec.Sum(dist))
	}
}

func TestStateRoundTrip(t *testing.T) {
	p, err := New(Config{Cardinalities: []int{3, 4, 2}, K: 2, Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	client := p.NewClient()
	r := rng.New(3)
	for i := 0; i < 500; i++ {
		record := uint64(i%3)<<uint(p.offsets[0]) |
			uint64((i/3)%4)<<uint(p.offsets[1]) |
			uint64((i/12)%2)<<uint(p.offsets[2])
		rep, err := client.Perturb(record, r)
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
	restored := p.NewAggregator().(*Aggregator)
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
	want, err := agg.(*Aggregator).EstimateCategorical([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.EstimateCategorical([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for c := range want {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			t.Fatalf("cell %d: %v vs %v", c, got[c], want[c])
		}
	}
}

// TestStateGoldenBytes pins the InpES state bytes (kind 10) the way
// core's test of the same name pins the six core protocols': the digest
// was recorded at 3f8878c, when this package wrote its own codec, and a
// sequential aggregator and the merge of a 4-shard one must both still
// marshal to it.
func TestStateGoldenBytes(t *testing.T) {
	const golden = "de6d02b52c0b643b0b4c868f36d2c97559db2b59a7e32e66cf11baa67d284266"
	p, err := New(Config{Cardinalities: []int{3, 4, 2}, K: 2, Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	client := p.NewClient()
	r := rng.New(97)
	reps := make([]core.Report, 2000)
	for i := range reps {
		record := uint64(i%3)<<uint(p.offsets[0]) |
			uint64((i/3)%4)<<uint(p.offsets[1]) |
			uint64((i/12)%2)<<uint(p.offsets[2])
		if reps[i], err = client.Perturb(record, r); err != nil {
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
			t.Errorf("%s InpES state (%d bytes) hashes to %s, want %s", name, len(blob), got, golden)
		}
	}
}

// TestUnmarshalStateRejectsWrappingSums: four counts of 2^62 sum to the 0
// reports the blob claims only modulo 2^64; see core's test of the same
// name.
func TestUnmarshalStateRejectsWrappingSums(t *testing.T) {
	p, err := New(Config{Cardinalities: []int{3, 4, 2}, K: 2, Epsilon: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, len(p.coeffs))
	counts[0], counts[1], counts[2], counts[3] = 1<<62, 1<<62, 1<<62, 1<<62
	e := wire.NewStateEncoder(stateKindES, 1)
	e.Uvarint(0)
	e.Int64s(make([]int64, len(counts)))
	e.Int64s(counts)
	agg := p.NewAggregator()
	if err := agg.UnmarshalState(e.Bytes()); err == nil {
		t.Fatal("state with wrapping count total restored")
	}
	want, _ := p.NewAggregator().MarshalState()
	if got, _ := agg.MarshalState(); !bytes.Equal(got, want) {
		t.Fatal("refused state changed the receiver")
	}
}
