package hadamard

import (
	"math"
	"testing"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/rng"
)

func TestWHTRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, 3, 6, 12} {
		if err := WHT(make([]float64, n)); err == nil {
			t.Errorf("WHT accepted length %d", n)
		}
	}
}

func TestWHTInvolution(t *testing.T) {
	r := rng.New(1)
	v := make([]float64, 32)
	for i := range v {
		v[i] = r.Float64()
	}
	orig := append([]float64(nil), v...)
	if err := WHT(v); err != nil {
		t.Fatal(err)
	}
	if err := InverseWHT(v); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if math.Abs(v[i]-orig[i]) > 1e-12 {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, v[i], orig[i])
		}
	}
}

func TestWHTParseval(t *testing.T) {
	r := rng.New(2)
	v := make([]float64, 64)
	var sumSq float64
	for i := range v {
		v[i] = r.Normal()
		sumSq += v[i] * v[i]
	}
	if err := WHT(v); err != nil {
		t.Fatal(err)
	}
	var coefSq float64
	for _, x := range v {
		coefSq += x * x
	}
	// Unnormalized transform: ||WHT v||^2 = n ||v||^2.
	if math.Abs(coefSq-64*sumSq) > 1e-8*coefSq {
		t.Errorf("Parseval violated: %v vs %v", coefSq, 64*sumSq)
	}
}

func TestWHTMatchesDirectDefinition(t *testing.T) {
	// m_alpha = sum_eta t[eta] * (-1)^{<alpha, eta>}
	r := rng.New(3)
	const d = 5
	v := make([]float64, 1<<d)
	for i := range v {
		v[i] = r.Float64()
	}
	coeffs := append([]float64(nil), v...)
	if err := WHT(coeffs); err != nil {
		t.Fatal(err)
	}
	for alpha := uint64(0); alpha < 1<<d; alpha++ {
		var want float64
		for eta := uint64(0); eta < 1<<d; eta++ {
			want += v[eta] * Sign(eta, alpha)
		}
		if math.Abs(coeffs[alpha]-want) > 1e-10 {
			t.Fatalf("coefficient %d: got %v, want %v", alpha, coeffs[alpha], want)
		}
	}
}

func TestSign(t *testing.T) {
	if Sign(0b11, 0b01) != -1 {
		t.Error("Sign(11,01) should be -1")
	}
	if Sign(0b11, 0b11) != 1 {
		t.Error("Sign(11,11) should be +1")
	}
	if Sign(0, 0b1011) != 1 {
		t.Error("Sign(0, x) should be +1")
	}
}

func TestScaledCoefficientsOfUniform(t *testing.T) {
	const d = 4
	u := make([]float64, 1<<d)
	for i := range u {
		u[i] = 1.0 / (1 << d)
	}
	m, err := ScaledCoefficients(u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m[0]-1) > 1e-12 {
		t.Errorf("m_0 = %v, want 1", m[0])
	}
	for alpha := 1; alpha < 1<<d; alpha++ {
		if math.Abs(m[alpha]) > 1e-12 {
			t.Errorf("m_%d = %v, want 0 for uniform", alpha, m[alpha])
		}
	}
}

func TestScaledCoefficientsOfPointMass(t *testing.T) {
	// One-hot input at j: every coefficient is (-1)^{<j,alpha>}.
	const d = 4
	const j = uint64(0b1010)
	v := make([]float64, 1<<d)
	v[j] = 1
	m, err := ScaledCoefficients(v)
	if err != nil {
		t.Fatal(err)
	}
	for alpha := uint64(0); alpha < 1<<d; alpha++ {
		if got, want := m[alpha], Sign(j, alpha); got != want {
			t.Errorf("m_%04b = %v, want %v", alpha, got, want)
		}
	}
}

func TestMapSource(t *testing.T) {
	src := MapSource{0b01: 0.5}
	if src.ScaledCoefficient(0) != 1 {
		t.Error("alpha=0 must be 1")
	}
	if src.ScaledCoefficient(0b01) != 0.5 {
		t.Error("stored coefficient lost")
	}
	if src.ScaledCoefficient(0b10) != 0 {
		t.Error("missing coefficient should be 0")
	}
}

// bruteMarginal computes C_beta directly from the distribution by
// summation (equation 3 of the paper).
func bruteMarginal(t []float64, beta uint64, d int) []float64 {
	k := bitops.OnesCount(beta)
	out := make([]float64, 1<<uint(k))
	for eta := uint64(0); eta < 1<<uint(d); eta++ {
		out[bitops.Compress(eta, beta)] += t[eta]
	}
	return out
}

func TestReconstructMarginalMatchesDirect(t *testing.T) {
	// Lemma 3.7: reconstruction from exact coefficients must equal the
	// directly-computed marginal for every beta.
	r := rng.New(7)
	const d = 6
	dist := make([]float64, 1<<d)
	var sum float64
	for i := range dist {
		dist[i] = r.Float64()
		sum += dist[i]
	}
	for i := range dist {
		dist[i] /= sum
	}
	coeffs, err := ScaledCoefficients(dist)
	if err != nil {
		t.Fatal(err)
	}
	src := MapSource{}
	for alpha, m := range coeffs {
		src[uint64(alpha)] = m
	}
	for _, beta := range bitops.MasksWithAtMostK(d, 1, 3) {
		got := make([]float64, 1<<uint(bitops.OnesCount(beta)))
		ReconstructMarginalInto(got, src, beta)
		want := bruteMarginal(dist, beta, d)
		for c := range want {
			if math.Abs(got[c]-want[c]) > 1e-10 {
				t.Fatalf("beta=%06b cell %d: got %v, want %v", beta, c, got[c], want[c])
			}
		}
	}
}

func TestReconstructMarginalPaperExample(t *testing.T) {
	// Paper Example 3.1 (d=4, beta=0101): check the four cells against
	// the explicit sums listed in the paper.
	r := rng.New(11)
	dist := make([]float64, 16)
	var sum float64
	for i := range dist {
		dist[i] = r.Float64()
		sum += dist[i]
	}
	for i := range dist {
		dist[i] /= sum
	}
	coeffs, _ := ScaledCoefficients(dist)
	src := MapSource{}
	for alpha, m := range coeffs {
		src[uint64(alpha)] = m
	}
	beta := uint64(0b0101)
	got := make([]float64, 4)
	ReconstructMarginalInto(got, src, beta)
	// Compact cell ordering: bits of (attr0, attr2).
	wants := map[uint64]float64{
		0b0000: dist[0b0000] + dist[0b0010] + dist[0b1000] + dist[0b1010],
		0b0001: dist[0b0001] + dist[0b0011] + dist[0b1001] + dist[0b1011],
		0b0100: dist[0b0100] + dist[0b0110] + dist[0b1100] + dist[0b1110],
		0b0101: dist[0b0101] + dist[0b0111] + dist[0b1101] + dist[0b1111],
	}
	for gamma, want := range wants {
		c := bitops.Compress(gamma, beta)
		if math.Abs(got[c]-want) > 1e-12 {
			t.Errorf("gamma=%04b: got %v, want %v", gamma, got[c], want)
		}
	}
}

func TestReconstructMarginalSumsToOne(t *testing.T) {
	// With exact coefficients of a distribution, each marginal sums to 1.
	r := rng.New(13)
	const d = 5
	dist := make([]float64, 1<<d)
	var sum float64
	for i := range dist {
		dist[i] = r.Float64()
		sum += dist[i]
	}
	for i := range dist {
		dist[i] /= sum
	}
	coeffs, _ := ScaledCoefficients(dist)
	src := MapSource{}
	for alpha, m := range coeffs {
		src[uint64(alpha)] = m
	}
	got := make([]float64, 4)
	for _, beta := range bitops.MasksWithExactlyK(d, 2) {
		ReconstructMarginalInto(got, src, beta)
		var s float64
		for _, x := range got {
			s += x
		}
		if math.Abs(s-1) > 1e-10 {
			t.Errorf("beta=%05b: marginal sums to %v", beta, s)
		}
	}
}

func TestCoefficientSet(t *testing.T) {
	// Paper: d=4, k=2 needs 11 coefficients including alpha=0; the set
	// here excludes alpha=0, so 10.
	set := CoefficientSet(4, 2)
	if len(set) != 10 {
		t.Fatalf("|T| = %d, want 10", len(set))
	}
	for _, alpha := range set {
		if alpha == 0 {
			t.Error("alpha=0 must not be in the set")
		}
		if bitops.OnesCount(alpha) > 2 {
			t.Errorf("alpha=%b has more than k bits", alpha)
		}
	}
	if got := len(CoefficientSet(16, 3)); got != 16+120+560 {
		t.Errorf("|T(16,3)| = %d, want 696", got)
	}
}

func BenchmarkWHT1K(b *testing.B) {
	v := make([]float64, 1024)
	for i := range v {
		v[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = WHT(v)
	}
}

func BenchmarkReconstructMarginalK3(b *testing.B) {
	src := MapSource{}
	for _, alpha := range CoefficientSet(16, 3) {
		src[alpha] = 0.01
	}
	beta := uint64(0b111)
	cells := make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReconstructMarginalInto(cells, src, beta)
	}
}

// ScaledCoefficients returns the full vector of scaled coefficients
// m_alpha (indexed by alpha) for a distribution t over 2^d cells. For
// testing and small-d reference computations; protocols never call this
// per user.
func ScaledCoefficients(t []float64) ([]float64, error) {
	m := make([]float64, len(t))
	copy(m, t)
	if err := WHT(m); err != nil {
		return nil, err
	}
	return m, nil
}
