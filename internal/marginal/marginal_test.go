package marginal

import (
	"math"
	"testing"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/vec"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomDist(r *rng.RNG, n int) []float64 {
	d := make([]float64, n)
	var sum float64
	for i := range d {
		d[i] = r.Float64()
		sum += d[i]
	}
	for i := range d {
		d[i] /= sum
	}
	return d
}

func TestNewAndUniform(t *testing.T) {
	tab, err := New(0b101)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Cells) != 4 || tab.K() != 2 {
		t.Fatalf("unexpected table shape: %d cells, k=%d", len(tab.Cells), tab.K())
	}
	u, err := Uniform(0b11)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range u.Cells {
		if c != 0.25 {
			t.Fatalf("uniform cells = %v", u.Cells)
		}
	}
	big := uint64(1)<<27 - 1
	if _, err := New(big); err == nil {
		t.Error("should reject k > MaxTableAttributes")
	}
}

func TestFromCells(t *testing.T) {
	if _, err := FromCells(0b11, []float64{1, 2}); err == nil {
		t.Error("wrong cell count should error")
	}
	tab, err := FromCells(0b11, []float64{0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if vec.Sum(tab.Cells) != 1.0 {
		t.Errorf("Sum = %v", vec.Sum(tab.Cells))
	}
}

func TestCellIndexing(t *testing.T) {
	tab, _ := New(0b0101)
	tab.SetCell(0b0100, 0.7)
	if got := tab.Cell(0b0100); got != 0.7 {
		t.Errorf("Cell = %v", got)
	}
	// Bits outside beta are ignored.
	if got := tab.Cell(0b1110); got != 0.7 {
		t.Errorf("Cell with extra bits = %v, want 0.7", got)
	}
}

func TestFromDistributionExample(t *testing.T) {
	// Paper Example 3.1: C_0101 groups full indices by their bits at
	// positions 0 and 2.
	r := rng.New(1)
	dist := randomDist(r, 16)
	tab, err := FromDistribution(dist, 4, 0b0101)
	if err != nil {
		t.Fatal(err)
	}
	want := dist[0b0000] + dist[0b0010] + dist[0b1000] + dist[0b1010]
	if !almostEq(tab.Cell(0b0000), want, 1e-12) {
		t.Errorf("cell 0000 = %v, want %v", tab.Cell(0b0000), want)
	}
	if !almostEq(vec.Sum(tab.Cells), 1, 1e-12) {
		t.Errorf("marginal mass = %v", vec.Sum(tab.Cells))
	}
}

func TestFromDistributionErrors(t *testing.T) {
	if _, err := FromDistribution(make([]float64, 15), 4, 1); err == nil {
		t.Error("bad length should error")
	}
	if _, err := FromDistribution(make([]float64, 16), 4, 1<<5); err == nil {
		t.Error("beta outside d should error")
	}
}

func TestFromRecordsMatchesFromDistribution(t *testing.T) {
	r := rng.New(2)
	const d = 5
	records := make([]uint64, 4000)
	for i := range records {
		records[i] = r.Uint64n(1 << d)
	}
	dist := make([]float64, 1<<d)
	for _, rec := range records {
		dist[rec] += 1.0 / float64(len(records))
	}
	for _, beta := range bitops.MasksWithAtMostK(d, 1, 3) {
		a, err := FromRecords(records, beta)
		if err != nil {
			t.Fatal(err)
		}
		b, err := FromDistribution(dist, d, beta)
		if err != nil {
			t.Fatal(err)
		}
		tv, err := a.TVDistance(b)
		if err != nil {
			t.Fatal(err)
		}
		if tv > 1e-10 {
			t.Fatalf("beta=%b: FromRecords and FromDistribution disagree (TV=%v)", beta, tv)
		}
	}
}

func TestFromRecordsEmpty(t *testing.T) {
	if _, err := FromRecords(nil, 1); err == nil {
		t.Error("empty records should error")
	}
}

func TestTVDistance(t *testing.T) {
	a, _ := FromCells(0b11, []float64{0.5, 0.5, 0, 0})
	b, _ := FromCells(0b11, []float64{0.25, 0.25, 0.25, 0.25})
	tv, err := a.TVDistance(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tv, 0.5, 1e-12) {
		t.Errorf("TV = %v, want 0.5", tv)
	}
	c, _ := New(0b101)
	if _, err := a.TVDistance(c); err == nil {
		t.Error("mismatched betas should error")
	}
}

func TestMarginalizeTo(t *testing.T) {
	r := rng.New(3)
	dist := randomDist(r, 1<<4)
	full, _ := FromDistribution(dist, 4, 0b0111)
	sub, err := full.MarginalizeTo(0b0101)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := FromDistribution(dist, 4, 0b0101)
	tv, _ := sub.TVDistance(direct)
	if tv > 1e-12 {
		t.Errorf("marginalization inconsistent with direct computation: TV=%v", tv)
	}
	if _, err := full.MarginalizeTo(0b1000); err == nil {
		t.Error("non-subset should error")
	}
}

func TestMarginalizePreservesMass(t *testing.T) {
	r := rng.New(4)
	dist := randomDist(r, 1<<6)
	full, _ := FromDistribution(dist, 6, 0b111000)
	for c := uint64(0); c < 1<<3; c++ {
		sub := bitops.Expand(c, 0b111000)
		m, err := full.MarginalizeTo(sub)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(vec.Sum(m.Cells), 1, 1e-10) {
			t.Errorf("sub=%b mass = %v", sub, vec.Sum(m.Cells))
		}
	}
}

func TestCellOfRecord(t *testing.T) {
	// Record 0b1010 restricted to beta=0b0110 has bits (1,0) at
	// positions (1,2) -> compact 0b01.
	if got := CellOfRecord(0b1010, 0b0110); got != 0b01 {
		t.Errorf("CellOfRecord = %b, want 01", got)
	}
}

func TestAddScaleClone(t *testing.T) {
	a, _ := FromCells(0b1, []float64{0.4, 0.6})
	b := a.Clone()
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	if !almostEq(a.Cells[0], 0.8, 1e-12) {
		t.Errorf("Add failed: %v", a.Cells)
	}
	a.Scale(0.5)
	if !almostEq(a.Cells[0], 0.4, 1e-12) {
		t.Errorf("Scale failed: %v", a.Cells)
	}
	c, _ := New(0b10)
	if err := a.Add(c); err == nil {
		t.Error("Add with mismatched beta should error")
	}
	if b.Cells[0] != 0.4 {
		t.Error("Clone not independent")
	}
}

func TestProjectToSimplex(t *testing.T) {
	tab, _ := FromCells(0b11, []float64{0.6, 0.6, -0.1, -0.1})
	tab.ProjectToSimplex()
	var sum float64
	for _, c := range tab.Cells {
		if c < 0 {
			t.Errorf("negative cell after projection: %v", tab.Cells)
		}
		sum += c
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Errorf("projected mass = %v", sum)
	}
}

func TestAllKWay(t *testing.T) {
	if got := len(AllKWay(8, 2)); got != 28 {
		t.Errorf("AllKWay(8,2) has %d masks, want 28", got)
	}
}

type exactEstimator struct {
	records []uint64
}

func (e exactEstimator) Estimate(beta uint64) (*Table, error) {
	return FromRecords(e.records, beta)
}

func TestMeanTVZeroForExact(t *testing.T) {
	r := rng.New(5)
	records := make([]uint64, 1000)
	for i := range records {
		records[i] = r.Uint64n(1 << 6)
	}
	tv, err := MeanTV(exactEstimator{records}, records, AllKWay(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if tv != 0 {
		t.Errorf("exact estimator should have zero TV, got %v", tv)
	}
	if _, err := MeanTV(exactEstimator{records}, records, nil); err == nil {
		t.Error("empty beta list should error")
	}
}

func BenchmarkFromRecords(b *testing.B) {
	r := rng.New(1)
	records := make([]uint64, 100000)
	for i := range records {
		records[i] = r.Uint64n(1 << 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromRecords(records, 0b1010101); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarginalizeTo(b *testing.B) {
	r := rng.New(2)
	tab, _ := New(0b11111111)
	for c := range tab.Cells {
		tab.Cells[c] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.MarginalizeTo(0b1001); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFromRecordsParallelBitIdentical checks that the parallel counting
// path (len >= parallelRecordThreshold) produces the same table as the
// sequential loop: counts are integers, so partial-histogram merging is
// exact in any grouping.
func TestFromRecordsParallelBitIdentical(t *testing.T) {
	r := rng.New(11)
	records := make([]uint64, parallelRecordThreshold+123)
	for i := range records {
		records[i] = r.Uint64() & 0xff
	}
	const beta = 0b1011
	par, err := FromRecords(records, beta)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential reference below the threshold machinery.
	seq, err := New(beta)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		seq.Cells[bitops.Compress(rec, beta)]++
	}
	seq.Scale(1 / float64(len(records)))
	for c := range seq.Cells {
		if math.Float64bits(par.Cells[c]) != math.Float64bits(seq.Cells[c]) {
			t.Fatalf("cell %d: parallel %v vs sequential %v", c, par.Cells[c], seq.Cells[c])
		}
	}
}
