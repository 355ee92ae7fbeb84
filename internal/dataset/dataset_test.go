package dataset

import (
	"fmt"
	"math"
	"testing"
)

// pearson computes the correlation of two attribute columns.
func pearson(ds *Dataset, a, b int) float64 {
	n := float64(ds.N())
	var sa, sb, sab float64
	for _, rec := range ds.Records {
		va := float64((rec >> uint(a)) & 1)
		vb := float64((rec >> uint(b)) & 1)
		sa += va
		sb += vb
		sab += va * vb
	}
	ma, mb := sa/n, sb/n
	cov := sab/n - ma*mb
	return cov / math.Sqrt(ma*(1-ma)*mb*(1-mb))
}

func TestTaxiStructure(t *testing.T) {
	ds := NewTaxi(60000, 1)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.D != 8 || ds.N() != 60000 {
		t.Fatalf("unexpected shape d=%d n=%d", ds.D, ds.N())
	}
	// Strongly dependent pairs from the paper's Figure 3 / Section 6.1.
	strong := [][2]int{
		{TaxiNightPick, TaxiNightDrop},
		{TaxiToll, TaxiFar},
		{TaxiCC, TaxiTip},
		{TaxiMPick, TaxiMDrop},
	}
	for _, p := range strong {
		if r := pearson(ds, p[0], p[1]); r < 0.3 {
			t.Errorf("pair (%s, %s) correlation %v, want strong positive",
				ds.Names[p[0]], ds.Names[p[1]], r)
		}
	}
	// Independent pairs used as chi-squared negatives in Figure 7.
	indep := [][2]int{
		{TaxiMDrop, TaxiCC},
		{TaxiFar, TaxiNightPick},
		{TaxiToll, TaxiNightPick},
	}
	for _, p := range indep {
		if r := math.Abs(pearson(ds, p[0], p[1])); r > 0.03 {
			t.Errorf("pair (%s, %s) correlation %v, want ~0",
				ds.Names[p[0]], ds.Names[p[1]], r)
		}
	}
}

func TestTaxiDeterministic(t *testing.T) {
	a := NewTaxi(100, 7)
	b := NewTaxi(100, 7)
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("same seed should reproduce records")
		}
	}
	c := NewTaxi(100, 8)
	diff := 0
	for i := range a.Records {
		if a.Records[i] != c.Records[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds should differ")
	}
}

func TestMovieLensPositiveCorrelations(t *testing.T) {
	ds, err := NewMovieLens(50000, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < ds.D; a++ {
		for b := a + 1; b < ds.D; b++ {
			if r := pearson(ds, a, b); r < 0.05 {
				t.Errorf("pair (%d,%d) correlation %v, want positive", a, b, r)
			}
		}
	}
}

func TestMovieLensLargeD(t *testing.T) {
	ds, err := NewMovieLens(1000, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ds.D != 24 || len(ds.Names) != 24 {
		t.Fatal("wrong shape for d=24")
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMovieLens(10, 0, 1); err == nil {
		t.Error("d=0 should error")
	}
	if _, err := NewMovieLens(10, 99, 1); err == nil {
		t.Error("d too large should error")
	}
}

func TestSkewedRates(t *testing.T) {
	ds, err := NewSkewed(80000, 6, 0.7, 4)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for j := 0; j < ds.D; j++ {
		ones := 0
		for _, rec := range ds.Records {
			if rec&(1<<uint(j)) != 0 {
				ones++
			}
		}
		rate := float64(ones) / float64(ds.N())
		if rate > prev+0.01 {
			t.Errorf("attribute %d rate %v not decaying (prev %v)", j, rate, prev)
		}
		prev = rate
	}
	if _, err := NewSkewed(10, 4, 0, 1); err == nil {
		t.Error("decay=0 should error")
	}
	if _, err := NewSkewed(10, 4, 1.5, 1); err == nil {
		t.Error("decay>1 should error")
	}
}

func TestDuplicateColumns(t *testing.T) {
	ds := NewTaxi(2000, 6)
	big, err := DuplicateColumns(ds, 20)
	if err != nil {
		t.Fatal(err)
	}
	if big.D != 20 {
		t.Fatalf("d = %d", big.D)
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	// Duplicated columns are exact copies.
	for i, rec := range big.Records {
		for j := 8; j < 20; j++ {
			orig := (ds.Records[i] >> uint(j%8)) & 1
			dup := (rec >> uint(j)) & 1
			if orig != dup {
				t.Fatalf("record %d: column %d does not mirror column %d", i, j, j%8)
			}
		}
	}
	if _, err := DuplicateColumns(ds, 4); err == nil {
		t.Error("shrinking should error")
	}
	if _, err := DuplicateColumns(ds, 99); err == nil {
		t.Error("over-limit should error")
	}
}

func TestMaskAndAttributeIndex(t *testing.T) {
	ds := NewTaxi(10, 1)
	m, err := ds.Mask("CC", "Tip")
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(1<<TaxiCC | 1<<TaxiTip)
	if m != want {
		t.Errorf("Mask = %b, want %b", m, want)
	}
	if _, err := ds.Mask("Nope"); err == nil {
		t.Error("unknown attribute should error")
	}
	if ds.AttributeIndex("Far") != TaxiFar {
		t.Error("AttributeIndex wrong")
	}
	if ds.AttributeIndex("zzz") != -1 {
		t.Error("missing attribute should be -1")
	}
}

func TestFullDistribution(t *testing.T) {
	ds := NewTaxi(5000, 2)
	dist, err := ds.FullDistribution()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution mass = %v", sum)
	}
	big, _ := DuplicateColumns(ds, 24)
	if _, err := big.FullDistribution(); err == nil {
		t.Error("d=24 full distribution should be refused")
	}
	empty := &Dataset{D: 2, Names: []string{"a", "b"}}
	if _, err := empty.FullDistribution(); err == nil {
		t.Error("empty dataset should error")
	}
}

func TestMarginalMatchesFullDistribution(t *testing.T) {
	ds := NewTaxi(20000, 3)
	dist, _ := ds.FullDistribution()
	beta := uint64(0b00000101)
	fromRecords, err := ds.Marginal(beta)
	if err != nil {
		t.Fatal(err)
	}
	var want [4]float64
	for eta, p := range dist {
		idx := (eta & 1) | ((eta >> 2) & 1 << 1)
		want[idx] += p
	}
	for c := range want {
		if math.Abs(fromRecords.Cells[c]-want[c]) > 1e-9 {
			t.Errorf("cell %d: %v vs %v", c, fromRecords.Cells[c], want[c])
		}
	}
}

func TestValidateRejectsBadRecords(t *testing.T) {
	ds := &Dataset{D: 2, Names: []string{"a", "b"}, Records: []uint64{5}}
	if err := ds.Validate(); err == nil {
		t.Error("record outside domain should fail validation")
	}
	ds2 := &Dataset{D: 2, Names: []string{"a"}}
	if err := ds2.Validate(); err == nil {
		t.Error("name/attribute mismatch should fail validation")
	}
	ds3 := &Dataset{D: 0, Names: nil}
	if err := ds3.Validate(); err == nil {
		t.Error("d=0 should fail validation")
	}
}

// FullDistribution materializes the empirical distribution over all 2^D
// cells, the reference TestMarginalMatchesFullDistribution checks
// Marginal against. It refuses d > 20 to bound memory.
func (ds *Dataset) FullDistribution() ([]float64, error) {
	if ds.D > 20 {
		return nil, fmt.Errorf("dataset: full distribution for d=%d would need 2^%d cells", ds.D, ds.D)
	}
	if len(ds.Records) == 0 {
		return nil, fmt.Errorf("dataset: no records")
	}
	dist := make([]float64, 1<<uint(ds.D))
	w := 1 / float64(len(ds.Records))
	for _, r := range ds.Records {
		dist[r] += w
	}
	return dist, nil
}
