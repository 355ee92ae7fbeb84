// Package stats provides the statistical machinery of the paper's
// applications (Section 6): the chi-squared independence test with exact
// p-values (via our own regularized incomplete gamma implementation,
// std-lib only), mutual information, entropy, and Pearson correlation
// matrices over binary datasets.
package stats

import (
	"fmt"
	"math"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/marginal"
)

// GammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = Gamma(a, x) / Gamma(a), computed by the standard series /
// continued-fraction split (Numerical Recipes style). a must be positive
// and x non-negative.
func GammaQ(a, x float64) (float64, error) {
	if a <= 0 {
		return 0, fmt.Errorf("stats: GammaQ needs a > 0, got %v", a)
	}
	if x < 0 {
		return 0, fmt.Errorf("stats: GammaQ needs x >= 0, got %v", x)
	}
	if x == 0 {
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaPSeries(a, x)
		if err != nil {
			return 0, err
		}
		return 1 - p, nil
	}
	return gammaQContinuedFraction(a, x)
}

// gammaPSeries evaluates P(a, x) by its power series, accurate for
// x < a+1.
func gammaPSeries(a, x float64) (float64, error) {
	const maxIter = 500
	const eps = 1e-14
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, fmt.Errorf("stats: gamma series failed to converge for a=%v x=%v", a, x)
}

// gammaQContinuedFraction evaluates Q(a, x) by the Lentz continued
// fraction, accurate for x >= a+1.
func gammaQContinuedFraction(a, x float64) (float64, error) {
	const maxIter = 500
	const eps = 1e-14
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return 0, fmt.Errorf("stats: gamma continued fraction failed to converge for a=%v x=%v", a, x)
}

// ChiSquarePValue returns the upper-tail p-value of a chi-squared
// statistic with df degrees of freedom.
func ChiSquarePValue(stat float64, df int) (float64, error) {
	if df <= 0 {
		return 0, fmt.Errorf("stats: degrees of freedom must be positive, got %d", df)
	}
	if stat < 0 {
		return 0, fmt.Errorf("stats: chi-squared statistic must be non-negative, got %v", stat)
	}
	return GammaQ(float64(df)/2, stat/2)
}

// ChiSquareCritical returns the critical value x such that a chi-squared
// variable with df degrees of freedom exceeds x with probability alpha
// (e.g. df=1, alpha=0.05 gives 3.841).
func ChiSquareCritical(df int, alpha float64) (float64, error) {
	if alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("stats: alpha %v out of (0,1)", alpha)
	}
	if df <= 0 {
		return 0, fmt.Errorf("stats: degrees of freedom must be positive, got %d", df)
	}
	// Bisection on the monotone survival function.
	lo, hi := 0.0, 1.0
	for {
		p, err := ChiSquarePValue(hi, df)
		if err != nil {
			return 0, err
		}
		if p < alpha {
			break
		}
		hi *= 2
		if hi > 1e9 {
			return 0, fmt.Errorf("stats: critical value search diverged")
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		p, err := ChiSquarePValue(mid, df)
		if err != nil {
			return 0, err
		}
		if p > alpha {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// ChiSquareStat computes the Pearson chi-squared independence statistic
// of an r x c contingency table of counts, along with its degrees of
// freedom (r-1)(c-1). Rows/columns with zero mass contribute nothing.
func ChiSquareStat(counts [][]float64) (stat float64, df int, err error) {
	r := len(counts)
	if r == 0 {
		return 0, 0, fmt.Errorf("stats: empty contingency table")
	}
	c := len(counts[0])
	rowSum := make([]float64, r)
	colSum := make([]float64, c)
	var total float64
	for i := range counts {
		if len(counts[i]) != c {
			return 0, 0, fmt.Errorf("stats: ragged contingency table")
		}
		for j, v := range counts[i] {
			if v < 0 {
				return 0, 0, fmt.Errorf("stats: negative count %v at (%d,%d)", v, i, j)
			}
			rowSum[i] += v
			colSum[j] += v
			total += v
		}
	}
	if total <= 0 {
		return 0, 0, fmt.Errorf("stats: contingency table has no mass")
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			expected := rowSum[i] * colSum[j] / total
			if expected == 0 {
				continue
			}
			diff := counts[i][j] - expected
			stat += diff * diff / expected
		}
	}
	return stat, (r - 1) * (c - 1), nil
}

// TestResult is the outcome of an independence test.
type TestResult struct {
	// Stat is the chi-squared statistic.
	Stat float64
	// Critical is the significance threshold at the requested alpha.
	Critical float64
	// Dependent reports whether the null hypothesis of independence is
	// rejected (Stat > Critical).
	Dependent bool
}

// ChiSquareIndependence tests independence of the two attributes of a
// 2-way marginal table whose cells are probabilities over a population
// of n users (Section 6.1). Estimated tables are simplex-projected
// first so that negative estimated cells cannot produce invalid counts.
func ChiSquareIndependence(tab *marginal.Table, n float64, alpha float64) (*TestResult, error) {
	if tab.K() != 2 {
		return nil, fmt.Errorf("stats: independence test needs a 2-way marginal, got %d-way", tab.K())
	}
	if n <= 0 {
		return nil, fmt.Errorf("stats: population size must be positive, got %v", n)
	}
	proj := tab.Clone().ProjectToSimplex()
	counts := [][]float64{
		{proj.Cells[0] * n, proj.Cells[1] * n},
		{proj.Cells[2] * n, proj.Cells[3] * n},
	}
	stat, df, err := ChiSquareStat(counts)
	if err != nil {
		return nil, err
	}
	crit, err := ChiSquareCritical(df, alpha)
	if err != nil {
		return nil, err
	}
	return &TestResult{Stat: stat, Critical: crit, Dependent: stat > crit}, nil
}

// MutualInformation computes I(A;B) in bits from a 2-way marginal table
// (Section 6.2). Estimated tables are simplex-projected first.
func MutualInformation(tab *marginal.Table) (float64, error) {
	if tab.K() != 2 {
		return 0, fmt.Errorf("stats: mutual information needs a 2-way marginal, got %d-way", tab.K())
	}
	p := tab.Clone().ProjectToSimplex()
	// Marginals of the two attributes: cells are ordered (b<<1)|a for
	// compact bits (a, b).
	pa := []float64{p.Cells[0] + p.Cells[2], p.Cells[1] + p.Cells[3]}
	pb := []float64{p.Cells[0] + p.Cells[1], p.Cells[2] + p.Cells[3]}
	var mi float64
	for b := 0; b < 2; b++ {
		for a := 0; a < 2; a++ {
			joint := p.Cells[b<<1|a]
			if joint <= 0 {
				continue
			}
			denom := pa[a] * pb[b]
			if denom <= 0 {
				continue
			}
			mi += joint * math.Log2(joint/denom)
		}
	}
	// Clamp tiny negative values from floating point.
	if mi < 0 && mi > -1e-12 {
		mi = 0
	}
	return mi, nil
}

// PearsonMatrix computes the d x d Pearson correlation matrix of the
// binary attribute columns of a record stream — the data behind the
// paper's Figure 3 heatmap. Constant columns yield NaN off-diagonal
// entries, matching the undefined correlation.
func PearsonMatrix(records []uint64, d int) ([][]float64, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("stats: no records")
	}
	if d <= 0 || d > bitops.MaxAttributes {
		return nil, fmt.Errorf("stats: d=%d out of range", d)
	}
	n := float64(len(records))
	mean := make([]float64, d)
	for _, rec := range records {
		for j := 0; j < d; j++ {
			if rec&(1<<uint(j)) != 0 {
				mean[j]++
			}
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	co := make([][]float64, d)
	for i := range co {
		co[i] = make([]float64, d)
	}
	for _, rec := range records {
		for i := 0; i < d; i++ {
			if rec&(1<<uint(i)) == 0 {
				continue
			}
			for j := i; j < d; j++ {
				if rec&(1<<uint(j)) != 0 {
					co[i][j]++
				}
			}
		}
	}
	out := make([][]float64, d)
	for i := range out {
		out[i] = make([]float64, d)
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov := co[i][j]/n - mean[i]*mean[j]
			si := math.Sqrt(mean[i] * (1 - mean[i]))
			sj := math.Sqrt(mean[j] * (1 - mean[j]))
			var r float64
			if i == j {
				r = 1
			} else {
				r = cov / (si * sj) // NaN when a column is constant
			}
			out[i][j] = r
			out[j][i] = r
		}
	}
	return out, nil
}
