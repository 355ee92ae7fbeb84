package stats

import (
	"math"
	"testing"

	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGammaQKnownValues(t *testing.T) {
	// Q(1, x) = exp(-x); Q(1/2, x) = erfc(sqrt(x)).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		q, err := GammaQ(1, x)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(q, math.Exp(-x), 1e-10) {
			t.Errorf("Q(1,%v) = %v, want %v", x, q, math.Exp(-x))
		}
		q2, err := GammaQ(0.5, x)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(q2, math.Erfc(math.Sqrt(x)), 1e-10) {
			t.Errorf("Q(0.5,%v) = %v, want %v", x, q2, math.Erfc(math.Sqrt(x)))
		}
	}
}

func TestGammaQEdges(t *testing.T) {
	if q, _ := GammaQ(2, 0); q != 1 {
		t.Errorf("Q(a,0) = %v, want 1", q)
	}
	if _, err := GammaQ(0, 1); err == nil {
		t.Error("a=0 should error")
	}
	if _, err := GammaQ(1, -1); err == nil {
		t.Error("x<0 should error")
	}
}

func TestGammaQMonotone(t *testing.T) {
	prev := 1.0
	for x := 0.0; x < 20; x += 0.5 {
		q, err := GammaQ(1.5, x)
		if err != nil {
			t.Fatal(err)
		}
		if q > prev+1e-12 {
			t.Fatalf("Q not monotone at x=%v: %v > %v", x, q, prev)
		}
		prev = q
	}
}

func TestChiSquareCriticalValues(t *testing.T) {
	// Textbook critical values.
	cases := []struct {
		df    int
		alpha float64
		want  float64
	}{
		{1, 0.05, 3.841},
		{1, 0.01, 6.635},
		{2, 0.05, 5.991},
		{3, 0.05, 7.815},
		{4, 0.05, 9.488},
	}
	for _, c := range cases {
		got, err := ChiSquareCritical(c.df, c.alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, c.want, 0.005) {
			t.Errorf("critical(df=%d, alpha=%v) = %v, want %v", c.df, c.alpha, got, c.want)
		}
	}
	if _, err := ChiSquareCritical(0, 0.05); err == nil {
		t.Error("df=0 should error")
	}
	if _, err := ChiSquareCritical(1, 1.5); err == nil {
		t.Error("alpha>1 should error")
	}
}

func TestChiSquarePValueRoundTrip(t *testing.T) {
	crit, err := ChiSquareCritical(1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ChiSquarePValue(crit, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p, 0.05, 1e-9) {
		t.Errorf("p-value at critical = %v, want 0.05", p)
	}
	if _, err := ChiSquarePValue(-1, 1); err == nil {
		t.Error("negative stat should error")
	}
	if _, err := ChiSquarePValue(1, 0); err == nil {
		t.Error("df=0 should error")
	}
}

func TestChiSquareStatTextbook(t *testing.T) {
	// Classic 2x2 example: perfectly proportional rows give stat 0.
	counts := [][]float64{{10, 20}, {30, 60}}
	stat, df, err := ChiSquareStat(counts)
	if err != nil {
		t.Fatal(err)
	}
	if df != 1 || !almostEq(stat, 0, 1e-9) {
		t.Errorf("stat = %v df = %d, want 0 and 1", stat, df)
	}
	// Hand-computed example.
	counts = [][]float64{{20, 30}, {30, 20}}
	stat, _, err = ChiSquareStat(counts)
	if err != nil {
		t.Fatal(err)
	}
	// Expected all cells 25; stat = 4 * 25/25 = 4.
	if !almostEq(stat, 4, 1e-9) {
		t.Errorf("stat = %v, want 4", stat)
	}
}

func TestChiSquareStatErrors(t *testing.T) {
	if _, _, err := ChiSquareStat(nil); err == nil {
		t.Error("empty table should error")
	}
	if _, _, err := ChiSquareStat([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged table should error")
	}
	if _, _, err := ChiSquareStat([][]float64{{-1, 2}, {3, 4}}); err == nil {
		t.Error("negative count should error")
	}
	if _, _, err := ChiSquareStat([][]float64{{0, 0}, {0, 0}}); err == nil {
		t.Error("zero-mass table should error")
	}
}

func TestChiSquareIndependenceOnTaxi(t *testing.T) {
	ds := dataset.NewTaxi(100000, 1)
	dep, _ := ds.Mask("CC", "Tip")
	ind, _ := ds.Mask("Far", "Night_pick")
	depTab, _ := ds.Marginal(dep)
	indTab, _ := ds.Marginal(ind)
	n := float64(ds.N())
	res, err := ChiSquareIndependence(depTab, n, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dependent {
		t.Errorf("CC-Tip should be declared dependent (stat=%v crit=%v)", res.Stat, res.Critical)
	}
	res2, err := ChiSquareIndependence(indTab, n, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Dependent {
		t.Errorf("Far-NightPick should be declared independent (stat=%v crit=%v)", res2.Stat, res2.Critical)
	}
}

func TestChiSquareIndependenceValidation(t *testing.T) {
	one, _ := marginal.Uniform(0b1)
	if _, err := ChiSquareIndependence(one, 100, 0.05); err == nil {
		t.Error("1-way table should error")
	}
	two, _ := marginal.Uniform(0b11)
	if _, err := ChiSquareIndependence(two, 0, 0.05); err == nil {
		t.Error("n=0 should error")
	}
}

func TestMutualInformationIndependent(t *testing.T) {
	// p(a,b) = p(a)p(b) => MI = 0.
	tab, _ := marginal.FromCells(0b11, []float64{0.06, 0.14, 0.24, 0.56})
	mi, err := MutualInformation(tab)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(mi, 0, 1e-9) {
		t.Errorf("MI of independent pair = %v, want 0", mi)
	}
}

func TestMutualInformationPerfectlyCorrelated(t *testing.T) {
	// A = B fair coin: MI = 1 bit.
	tab, _ := marginal.FromCells(0b11, []float64{0.5, 0, 0, 0.5})
	mi, err := MutualInformation(tab)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(mi, 1, 1e-9) {
		t.Errorf("MI of identical coins = %v, want 1", mi)
	}
	one, _ := marginal.Uniform(0b1)
	if _, err := MutualInformation(one); err == nil {
		t.Error("1-way table should error")
	}
}

func TestMutualInformationNonNegative(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		cells := make([]float64, 4)
		var sum float64
		for i := range cells {
			cells[i] = r.Float64()
			sum += cells[i]
		}
		for i := range cells {
			cells[i] /= sum
		}
		tab, _ := marginal.FromCells(0b11, cells)
		mi, err := MutualInformation(tab)
		if err != nil {
			t.Fatal(err)
		}
		if mi < 0 {
			t.Fatalf("negative MI %v for %v", mi, cells)
		}
	}
}

func TestPearsonMatrixTaxi(t *testing.T) {
	ds := dataset.NewTaxi(60000, 5)
	m, err := PearsonMatrix(ds.Records, ds.D)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.D; i++ {
		if m[i][i] != 1 {
			t.Errorf("diagonal[%d] = %v, want 1", i, m[i][i])
		}
		for j := 0; j < ds.D; j++ {
			if m[i][j] != m[j][i] {
				t.Errorf("matrix not symmetric at (%d,%d)", i, j)
			}
			if i != j && (m[i][j] < -1 || m[i][j] > 1) {
				t.Errorf("correlation out of range: %v", m[i][j])
			}
		}
	}
	cc, tip := dataset.TaxiCC, dataset.TaxiTip
	if m[cc][tip] < 0.3 {
		t.Errorf("CC-Tip correlation = %v, want strong", m[cc][tip])
	}
	if _, err := PearsonMatrix(nil, 4); err == nil {
		t.Error("no records should error")
	}
	if _, err := PearsonMatrix(ds.Records, 0); err == nil {
		t.Error("d=0 should error")
	}
}

func TestPearsonMatrixConstantColumn(t *testing.T) {
	// A constant column has undefined correlation: NaN off-diagonal.
	records := []uint64{0b01, 0b01, 0b11, 0b01}
	m, err := PearsonMatrix(records, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(m[0][1]) {
		t.Errorf("correlation with constant column = %v, want NaN", m[0][1])
	}
	if m[0][0] != 1 {
		t.Error("diagonal should still be 1")
	}
}
