package privacy

import (
	"fmt"
	"math"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/efronstein"
	"ldpmarginals/internal/em"
	"ldpmarginals/internal/freqoracle"
	"ldpmarginals/internal/mech"
	"ldpmarginals/internal/rng"
)

// clientRandomizer adapts a protocol client on a fixed record to a
// Randomizer over serialized reports.
func clientRandomizer(t *testing.T, c core.Client, record uint64) Randomizer {
	t.Helper()
	return func(r *rng.RNG) string {
		rep, err := c.Perturb(record, r)
		if err != nil {
			t.Fatalf("perturb: %v", err)
		}
		return fmt.Sprintf("%d|%d|%d|%v", rep.Beta, rep.Index, rep.Sign, rep.Bits)
	}
}

// checkEpsilon asserts the empirical epsilon is close to (and in
// particular not meaningfully above) the configured budget.
func checkEpsilon(t *testing.T, name string, est *Estimate, eps float64) {
	t.Helper()
	// Allow sampling slack above, and require the mechanism actually
	// spends a recognisable fraction of its budget (far-below means the
	// test is not exercising the worst case).
	if est.Epsilon > eps*1.25+0.1 {
		t.Errorf("%s: empirical eps %.3f exceeds budget %.3f (worst output %q)",
			name, est.Epsilon, eps, est.WorstOutput)
	}
	if est.Epsilon < eps*0.5 {
		t.Errorf("%s: empirical eps %.3f far below budget %.3f — adjacent pair not worst-case?",
			name, est.Epsilon, eps)
	}
}

func TestRRBudget(t *testing.T) {
	const eps = 1.0
	m, err := mech.NewRR(eps)
	if err != nil {
		t.Fatal(err)
	}
	r1 := func(r *rng.RNG) string { return fmt.Sprint(m.PerturbBit(true, r)) }
	r2 := func(r *rng.RNG) string { return fmt.Sprint(m.PerturbBit(false, r)) }
	est, err := EstimateEpsilon(r1, r2, 400000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkEpsilon(t, "RR", est, eps)
}

func TestGRRBudget(t *testing.T) {
	const eps = 1.1
	g, err := mech.NewGRR(eps, 8)
	if err != nil {
		t.Fatal(err)
	}
	r1 := func(r *rng.RNG) string { return fmt.Sprint(g.Perturb(3, r)) }
	r2 := func(r *rng.RNG) string { return fmt.Sprint(g.Perturb(5, r)) }
	est, err := EstimateEpsilon(r1, r2, 600000, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkEpsilon(t, "GRR", est, eps)
}

func TestPRRSparseBudget(t *testing.T) {
	const eps = 1.0
	for _, optimized := range []bool{false, true} {
		m, err := mech.NewPRR(eps, optimized)
		if err != nil {
			t.Fatal(err)
		}
		perturb := func(signal uint64) Randomizer {
			return func(r *rng.RNG) string {
				bits, err := m.PerturbOneHot(signal, 8, r)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(bits)
			}
		}
		est, err := EstimateEpsilon(perturb(2), perturb(6), 800000, 40, 3)
		if err != nil {
			t.Fatal(err)
		}
		// The 2^8 output space spreads samples thin: accept a wider
		// band but still reject overspending.
		if est.Epsilon > eps*1.4+0.1 {
			t.Errorf("PRR(optimized=%v): empirical eps %.3f exceeds %.3f", optimized, est.Epsilon, eps)
		}
	}
}

func TestProtocolClientBudgets(t *testing.T) {
	// Every served client, on two adjacent records, must stay within
	// epsilon: the six core protocols and InpHTCMS.
	const eps = 1.1
	const n = 600000
	cfg := core.Config{D: 3, K: 2, Epsilon: eps, OptimizedPRR: true}
	var protocols []core.Protocol
	for _, kind := range core.AllKinds() {
		p, err := core.New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		protocols = append(protocols, p)
	}
	// A 2-row, 8-wide sketch has 32 outputs (row, coefficient, sign):
	// over n samples the rarer sign of each (row, coefficient) is
	// expected n/16/(1+e^eps), about 9,400 times, far above minCount.
	hcms, err := freqoracle.NewHCMS(freqoracle.HCMSConfig{D: 3, K: 2, Epsilon: eps, G: 2, W: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	protocols = append(protocols, hcms)
	for _, p := range protocols {
		c1 := clientRandomizer(t, p.NewClient(), 0b010)
		c2 := clientRandomizer(t, p.NewClient(), 0b101)
		est, err := EstimateEpsilon(c1, c2, n, 50, 7)
		if err != nil {
			t.Fatal(err)
		}
		if est.Epsilon > eps*1.3+0.1 {
			t.Errorf("%s: empirical eps %.3f exceeds budget %.3f (worst %q)",
				p.Name(), est.Epsilon, eps, est.WorstOutput)
		}
		if est.Epsilon == 0 {
			t.Errorf("%s: empirical eps 0 — outputs independent of input?", p.Name())
		}
	}
}

func TestEMClientBudget(t *testing.T) {
	const eps = 1.2
	p, err := em.New(core.Config{D: 3, K: 2, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent records in the LDP sense differ arbitrarily; the worst
	// case flips all d bits.
	c1 := clientRandomizer(t, p.NewClient(), 0b000)
	c2 := clientRandomizer(t, p.NewClient(), 0b111)
	est, err := EstimateEpsilon(c1, c2, 600000, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	checkEpsilon(t, "InpEM", est, eps)
}

func TestESClientBudget(t *testing.T) {
	const eps = 1.0
	p, err := efronstein.New(efronstein.Config{Cardinalities: []int{3, 4}, K: 2, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	// Records (v0=0, v1=0) and (v0=2, v1=3).
	rec1 := uint64(0)
	rec2 := uint64(2) | uint64(3)<<2
	c1 := clientRandomizer(t, p.NewClient(), rec1)
	c2 := clientRandomizer(t, p.NewClient(), rec2)
	est, err := EstimateEpsilon(c1, c2, 800000, 50, 11)
	if err != nil {
		t.Fatal(err)
	}
	if est.Epsilon > eps*1.3+0.1 {
		t.Errorf("InpES: empirical eps %.3f exceeds budget %.3f", est.Epsilon, eps)
	}
	if est.Epsilon == 0 {
		t.Error("InpES: outputs independent of input?")
	}
}

func TestEstimateEpsilonValidation(t *testing.T) {
	id := func(r *rng.RNG) string { return "x" }
	if _, err := EstimateEpsilon(id, id, 0, 0, 1); err == nil {
		t.Error("samples=0 should error")
	}
	est, err := EstimateEpsilon(id, id, 1000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Epsilon != 0 || est.Outputs != 1 {
		t.Errorf("identical mechanisms should give eps 0: %+v", est)
	}
}

func TestEstimateDetectsNonPrivateMechanism(t *testing.T) {
	// A mechanism leaking its input plainly has unbounded empirical
	// epsilon — approximated by a large finite value... but with
	// disjoint supports every output is ignored on one side, so the
	// verifier reports what it can and flags the ignores.
	m1 := func(r *rng.RNG) string { return "a" }
	m2 := func(r *rng.RNG) string { return "b" }
	est, err := EstimateEpsilon(m1, m2, 10000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Ignored != 2 {
		t.Errorf("disjoint supports should be flagged as ignored outputs, got %+v", est)
	}
}

func TestEstimateRespectsBudgetWithLaplaceLikeNoise(t *testing.T) {
	// Sanity: a mechanism with a known likelihood ratio bound e^0.5.
	const eps = 0.5
	p := math.Exp(eps) / (1 + math.Exp(eps))
	m1 := func(r *rng.RNG) string { return fmt.Sprint(r.Bernoulli(p)) }
	m2 := func(r *rng.RNG) string { return fmt.Sprint(r.Bernoulli(1 - p)) }
	est, err := EstimateEpsilon(m1, m2, 400000, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	checkEpsilon(t, "biased-coin", est, eps)
}
