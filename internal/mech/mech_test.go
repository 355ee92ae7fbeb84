package mech

import (
	"math"
	"testing"

	"ldpmarginals/internal/rng"
)

const ln3 = 1.0986122886681098

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPFromEpsilon(t *testing.T) {
	// e^eps = 3 => p = 3/4.
	if got := PFromEpsilon(ln3); !almostEq(got, 0.75, 1e-12) {
		t.Errorf("PFromEpsilon(ln 3) = %v, want 0.75", got)
	}
}

func TestSplitEpsilon(t *testing.T) {
	got, err := SplitEpsilon(1.0, 4)
	if err != nil || got != 0.25 {
		t.Errorf("SplitEpsilon(1,4) = %v, %v", got, err)
	}
	if _, err := SplitEpsilon(1.0, 0); err == nil {
		t.Error("expected error for m=0")
	}
	if _, err := SplitEpsilon(-1, 2); err == nil {
		t.Error("expected error for negative epsilon")
	}
}

func TestRRPrivacy(t *testing.T) {
	for _, eps := range []float64{0.1, 0.5, ln3, 2.0} {
		m, err := NewRR(eps)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(m.Epsilon(), eps, 1e-9) {
			t.Errorf("RR(%v).Epsilon() = %v", eps, m.Epsilon())
		}
		if m.P <= 0.5 || m.P >= 1 {
			t.Errorf("RR keep probability %v out of (1/2, 1)", m.P)
		}
	}
	if _, err := NewRR(0); err == nil {
		t.Error("expected error for eps=0")
	}
}

func TestRRUnbiasedness(t *testing.T) {
	m, _ := NewRR(ln3)
	r := rng.New(1)
	const n = 200000
	// True frequency of 1s: 0.3.
	ones := 0
	for i := 0; i < n; i++ {
		truth := r.Bernoulli(0.3)
		if m.PerturbBit(truth, r) {
			ones++
		}
	}
	est := m.UnbiasMean(float64(ones) / n)
	if !almostEq(est, 0.3, 0.01) {
		t.Errorf("RR unbiased estimate = %v, want ~0.3", est)
	}
}

func TestRRSignUnbiasedness(t *testing.T) {
	m, _ := NewRR(1.0)
	r := rng.New(2)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += m.UnbiasSign(m.PerturbSign(-1, r))
	}
	if !almostEq(sum/n, -1, 0.03) {
		t.Errorf("mean unbiased sign = %v, want ~-1", sum/n)
	}
}

func TestPRRProbabilities(t *testing.T) {
	vanilla, err := NewPRR(ln3, false)
	if err != nil {
		t.Fatal(err)
	}
	// eps/2-RR keep probability: e^{eps/2}/(1+e^{eps/2}) with e^eps=3
	// => sqrt(3)/(1+sqrt(3)).
	want := math.Sqrt(3) / (1 + math.Sqrt(3))
	if !almostEq(vanilla.P1, want, 1e-12) || !almostEq(vanilla.P0, 1-want, 1e-12) {
		t.Errorf("vanilla PRR probabilities = (%v, %v)", vanilla.P1, vanilla.P0)
	}
	oue, err := NewPRR(ln3, true)
	if err != nil {
		t.Fatal(err)
	}
	if oue.P1 != 0.5 || !almostEq(oue.P0, 0.25, 1e-12) {
		t.Errorf("OUE probabilities = (%v, %v), want (0.5, 0.25)", oue.P1, oue.P0)
	}
}

func TestPRRPrivacySparse(t *testing.T) {
	// Fact 3.2: both variants must provide exactly eps on one-hot inputs.
	for _, eps := range []float64{0.2, 1.1, 2.0} {
		for _, opt := range []bool{false, true} {
			m, _ := NewPRR(eps, opt)
			if got := m.EpsilonSparse(); !almostEq(got, eps, 1e-9) {
				t.Errorf("PRR(eps=%v, optimized=%v).EpsilonSparse() = %v", eps, opt, got)
			}
		}
	}
}

func TestPRRUnbiasedness(t *testing.T) {
	for _, opt := range []bool{false, true} {
		m, _ := NewPRR(ln3, opt)
		r := rng.New(3)
		const n = 300000
		ones := 0
		for i := 0; i < n; i++ {
			truth := r.Bernoulli(0.2)
			if m.PerturbBit(truth, r) {
				ones++
			}
		}
		est := m.UnbiasFrequency(float64(ones) / n)
		if !almostEq(est, 0.2, 0.01) {
			t.Errorf("PRR(optimized=%v) estimate = %v, want ~0.2", opt, est)
		}
	}
}

func TestPRRPerturbOneHot(t *testing.T) {
	m, _ := NewPRR(2.0, true)
	r := rng.New(4)
	out, err := m.PerturbOneHot(5, 128, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("expected 2 words for 128 bits, got %d", len(out))
	}
	if _, err := m.PerturbOneHot(128, 128, r); err == nil {
		t.Error("signal out of range should error")
	}
	if _, err := m.PerturbOneHot(0, 0, r); err == nil {
		t.Error("size 0 should error")
	}
	if _, err := m.PerturbOneHot(0, 1<<21, r); err == nil {
		t.Error("oversized vector should error")
	}
}

func TestGRRPrivacy(t *testing.T) {
	for _, m := range []uint64{2, 16, 256} {
		for _, eps := range []float64{0.3, 1.1} {
			g, err := NewGRR(eps, m)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEq(g.Epsilon(), eps, 1e-9) {
				t.Errorf("GRR(m=%d, eps=%v).Epsilon() = %v", m, eps, g.Epsilon())
			}
		}
	}
	if _, err := NewGRR(1.0, 1); err == nil {
		t.Error("expected error for m=1")
	}
	if _, err := NewGRR(0, 4); err == nil {
		t.Error("expected error for eps=0")
	}
}

func TestGRREqualsRRForTwoCategories(t *testing.T) {
	// Paper: "When m = 2 this mechanism is equivalent to 1 bit randomized
	// response."
	g, _ := NewGRR(ln3, 2)
	r, _ := NewRR(ln3)
	if !almostEq(g.Ps, r.P, 1e-12) {
		t.Errorf("GRR(2).Ps = %v, RR.P = %v", g.Ps, r.P)
	}
}

func TestGRRPerturbDistribution(t *testing.T) {
	g, _ := NewGRR(ln3, 4)
	r := rng.New(5)
	const n = 200000
	counts := make([]uint64, 4)
	for i := 0; i < n; i++ {
		counts[g.Perturb(2, r)]++
	}
	gotTrue := float64(counts[2]) / n
	if !almostEq(gotTrue, g.Ps, 0.01) {
		t.Errorf("true category frequency = %v, want ~%v", gotTrue, g.Ps)
	}
	other := (1 - g.Ps) / 3
	for _, j := range []int{0, 1, 3} {
		got := float64(counts[j]) / n
		if !almostEq(got, other, 0.01) {
			t.Errorf("category %d frequency = %v, want ~%v", j, got, other)
		}
	}
}

func TestGRRUnbiasedness(t *testing.T) {
	g, _ := NewGRR(1.0, 8)
	r := rng.New(6)
	const n = 400000
	// Skewed truth: category 0 with prob 0.5, category 7 with prob 0.5.
	counts := make([]uint64, 8)
	for i := 0; i < n; i++ {
		truth := uint64(0)
		if r.Bernoulli(0.5) {
			truth = 7
		}
		counts[g.Perturb(truth, r)]++
	}
	est := make([]float64, len(counts))
	for j, c := range counts {
		est[j] = g.UnbiasFrequency(float64(c) / n)
	}
	if !almostEq(est[0], 0.5, 0.02) || !almostEq(est[7], 0.5, 0.02) {
		t.Errorf("estimates = %v, want ~0.5 at 0 and 7", est)
	}
	for _, j := range []int{1, 2, 3, 4, 5, 6} {
		if !almostEq(est[j], 0, 0.02) {
			t.Errorf("estimate[%d] = %v, want ~0", j, est[j])
		}
	}
}

func TestGRRUnbiasMatchesPaperFormula(t *testing.T) {
	// Cross-check the paper's closed form f = (D F + ps - 1)/(D ps + ps - 1)
	// against the derivation from first principles used in UnbiasFrequency.
	g, _ := NewGRR(0.7, 32)
	d := float64(31)
	for _, f := range []float64{0, 0.1, 0.5, 1} {
		observed := f*g.Ps + (1-f)*(1-g.Ps)/d
		if got := g.UnbiasFrequency(observed); !almostEq(got, f, 1e-9) {
			t.Errorf("round trip for f=%v gave %v", f, got)
		}
	}
}

func BenchmarkRRPerturb(b *testing.B) {
	m, _ := NewRR(1.1)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = m.PerturbBit(i&1 == 0, r)
	}
}

func BenchmarkGRRPerturb(b *testing.B) {
	g, _ := NewGRR(1.1, 256)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = g.Perturb(uint64(i)&255, r)
	}
}

func BenchmarkPRROneHot256(b *testing.B) {
	m, _ := NewPRR(1.1, true)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		if _, err := m.PerturbOneHot(uint64(i)&255, 256, r); err != nil {
			b.Fatal(err)
		}
	}
}

// Epsilon returns the privacy parameter ln(P / (1-P)) this instance
// provides.
func (m *RR) Epsilon() float64 { return math.Log(m.P / (1 - m.P)) }

// UnbiasMean converts the observed frequency of 1-reports into an
// unbiased estimate of the true frequency of 1s:
// E[F] = f*P + (1-f)*(1-P)  =>  f = (F - (1-P)) / (2P - 1).
func (m *RR) UnbiasMean(observed float64) float64 {
	return (observed - (1 - m.P)) / (2*m.P - 1)
}

// EpsilonSparse returns the privacy parameter this instance provides on
// one-hot inputs. Adjacent inputs differ in exactly two positions; the
// worst-case likelihood ratio is
// max_y P(y|1)/P(y|0) * max_y P(y|0)/P(y|1).
func (m *PRR) EpsilonSparse() float64 {
	up := math.Max(m.P1/m.P0, (1-m.P1)/(1-m.P0))
	down := math.Max(m.P0/m.P1, (1-m.P0)/(1-m.P1))
	return math.Log(up * down)
}

// Epsilon returns the privacy parameter ln(Ps/(1-Ps) * (m-1)) this
// instance provides (Fact 3.1).
func (g *GRR) Epsilon() float64 {
	return math.Log(g.Ps / (1 - g.Ps) * float64(g.M-1))
}
