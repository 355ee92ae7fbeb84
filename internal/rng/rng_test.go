package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Errorf("seed 0 produced only %d distinct values of 100", len(seen))
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork()
	c2 := parent.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("sibling forks produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, buckets = 120000, 6
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(17)
	const n = 100000
	for _, p := range []float64{0.1, 0.5, 0.75} {
		hits := 0
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 4*math.Sqrt(p*(1-p)/n) {
			t.Errorf("Bernoulli(%v) frequency = %v", p, got)
		}
	}
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	if r.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) should clamp to false")
	}
	if !r.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) should clamp to true")
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(23)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(31)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, 8)
	for _, v := range xs {
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Errorf("value %d missing after shuffle", i)
		}
	}
}

func TestBinomialSmall(t *testing.T) {
	r := New(41)
	const trials = 50000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(r.Binomial(10, 0.3))
	}
	mean := sum / trials
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("Binomial(10,0.3) mean = %v, want ~3", mean)
	}
}

func TestBinomialLargeNormalApprox(t *testing.T) {
	r := New(43)
	const n, p = 100000, 0.25
	const trials = 2000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		k := float64(r.Binomial(n, p))
		sum += k
		sumSq += k * k
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	wantMean := float64(n) * p
	wantVar := float64(n) * p * (1 - p)
	if math.Abs(mean-wantMean) > 0.01*wantMean {
		t.Errorf("Binomial mean = %v, want ~%v", mean, wantMean)
	}
	if math.Abs(variance-wantVar) > 0.15*wantVar {
		t.Errorf("Binomial variance = %v, want ~%v", variance, wantVar)
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(47)
	if r.Binomial(0, 0.5) != 0 {
		t.Error("n=0 should give 0")
	}
	if r.Binomial(10, 0) != 0 {
		t.Error("p=0 should give 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Error("p=1 should give n")
	}
	for i := 0; i < 100; i++ {
		if k := r.Binomial(5, 0.5); k < 0 || k > 5 {
			t.Fatalf("Binomial out of range: %d", k)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkBernoulli(b *testing.B) {
	r := New(1)
	n := 0
	for i := 0; i < b.N; i++ {
		if r.Bernoulli(0.3) {
			n++
		}
	}
	_ = n
}
