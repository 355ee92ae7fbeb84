package vec

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestUniform(t *testing.T) {
	u := Uniform(4)
	for _, x := range u {
		if x != 0.25 {
			t.Fatalf("Uniform(4) = %v", u)
		}
	}
	if !almostEq(Sum(u), 1, 1e-12) {
		t.Errorf("uniform should sum to 1")
	}
}

func TestL1AndTV(t *testing.T) {
	a := []float64{0.5, 0.5, 0, 0}
	b := []float64{0.25, 0.25, 0.25, 0.25}
	if !almostEq(L1Dist(a, b), 1.0, 1e-12) {
		t.Errorf("L1Dist = %v, want 1.0", L1Dist(a, b))
	}
	if !almostEq(TVDist(a, b), 0.5, 1e-12) {
		t.Errorf("TVDist = %v, want 0.5", TVDist(a, b))
	}
}

func TestTVProperties(t *testing.T) {
	sanitize := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			out[i] = math.Mod(x, 1e6)
		}
		return out
	}
	symmetric := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = sanitize(a[:n]), sanitize(b[:n])
		return almostEq(TVDist(a, b), TVDist(b, a), 1e-9)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	identity := func(a []float64) bool { return TVDist(a, a) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Error(err)
	}
}

func TestL1DistPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	L1Dist([]float64{1}, []float64{1, 2})
}

func TestMaxAbsDiff(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 5, 2}
	if got := MaxAbsDiff(a, b); got != 3 {
		t.Errorf("MaxAbsDiff = %v, want 3", got)
	}
}

func TestScaleAddClone(t *testing.T) {
	v := []float64{1, 2}
	c := Clone(v)
	Scale(v, 2)
	if v[0] != 2 || v[1] != 4 {
		t.Errorf("Scale failed: %v", v)
	}
	if c[0] != 1 || c[1] != 2 {
		t.Errorf("Clone should be independent: %v", c)
	}
	Add(v, c)
	if v[0] != 3 || v[1] != 6 {
		t.Errorf("Add failed: %v", v)
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{2, 2, 4}
	Normalize(v)
	if !almostEq(v[2], 0.5, 1e-12) || !almostEq(Sum(v), 1, 1e-12) {
		t.Errorf("Normalize = %v", v)
	}
	z := []float64{0, 0}
	Normalize(z)
	if z[0] != 0.5 || z[1] != 0.5 {
		t.Errorf("Normalize of zero vector should be uniform, got %v", z)
	}
	neg := []float64{-1, -1}
	Normalize(neg)
	if !almostEq(Sum(neg), 1, 1e-12) {
		t.Errorf("Normalize of negative-sum vector should reset to uniform, got %v", neg)
	}
}

func TestProjectToSimplexAlreadyValid(t *testing.T) {
	v := []float64{0.25, 0.25, 0.5}
	got := Clone(v)
	ProjectToSimplex(got)
	for i := range v {
		if !almostEq(got[i], v[i], 1e-9) {
			t.Errorf("projection changed a valid distribution: %v", got)
		}
	}
}

func TestProjectToSimplexProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			// keep magnitudes sane
			v[i] = math.Mod(x, 100)
		}
		ProjectToSimplex(v)
		var s float64
		for _, x := range v {
			if x < -1e-9 {
				return false
			}
			s += x
		}
		return almostEq(s, 1, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProjectToSimplexKnown(t *testing.T) {
	// Projection of (1.2, -0.2) onto the simplex is (1, 0) after
	// thresholding: theta solves the KKT conditions.
	v := []float64{1.2, -0.2}
	ProjectToSimplex(v)
	if !almostEq(v[0], 1, 1e-9) || !almostEq(v[1], 0, 1e-9) {
		t.Errorf("projection = %v, want [1 0]", v)
	}
}

// projectToSimplexReference is the allocating sort.Sort projection
// ProjectToSimplex replaced, kept verbatim as the reference it must
// equal bit for bit.
func projectToSimplexReference(v []float64) []float64 {
	n := len(v)
	if n == 0 {
		return v
	}
	sorted := Clone(v)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var cumulative, theta float64
	k := 0
	for i := 0; i < n; i++ {
		cumulative += sorted[i]
		t := (cumulative - 1) / float64(i+1)
		if sorted[i]-t > 0 {
			theta = t
			k = i + 1
		}
	}
	if k == 0 {
		copy(v, Uniform(n))
		return v
	}
	for i := range v {
		v[i] = math.Max(0, v[i]-theta)
	}
	return v
}

// TestProjectToSimplexMatchesReference draws vectors of every length up
// to past the stack scratch — with ties, all-negative ones, zeros of
// both signs, NaNs and single cells among them — and requires the projection
// bit-identical to the sort.Sort reference.
func TestProjectToSimplexMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	draws := []func() float64{
		func() float64 { return r.Float64()*1.4 - 0.2 },                              // table-shaped noise
		func() float64 { return float64(r.Intn(5)-1) / 4 },                           // many ties
		func() float64 { return -r.Float64() },                                       // all negative
		func() float64 { return []float64{0, math.Copysign(0, -1), 0.5}[r.Intn(3)] }, // signed zeros
		func() float64 { return r.NormFloat64() * 1e6 },                              // large spread
	}
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16, 33, 64, 255, 256, 257, 1024} {
		for di, draw := range draws {
			for trial := 0; trial < 20; trial++ {
				v := make([]float64, n)
				for i := range v {
					v[i] = draw()
				}
				want := projectToSimplexReference(Clone(v))
				got := ProjectToSimplex(Clone(v))
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d draw %d trial %d: cell %d = %v, reference %v (input %v)", n, di, trial, i, got[i], want[i], v)
					}
				}
			}
		}
	}
}

// TestSort8SortsEveryInput feeds the 8-cell network all 256 vectors of
// zeros and ones: by the 0-1 principle, a comparator network that sorts
// them sorts every input.
func TestSort8SortsEveryInput(t *testing.T) {
	for bits := 0; bits < 256; bits++ {
		var in, out [8]float64
		for i := range in {
			in[i] = float64(bits >> i & 1)
		}
		sort8(&out, &in)
		if !sort.Float64sAreSorted(out[:]) {
			t.Fatalf("%v sorts to %v", in, out)
		}
	}
}

// TestProjectToSimplexAllocatesNothing: a table of up to 16 cells
// projects without touching the heap.
func TestProjectToSimplexAllocatesNothing(t *testing.T) {
	for _, n := range []int{1, 4, 8, 16} {
		v := make([]float64, n)
		if allocs := testing.AllocsPerRun(100, func() {
			for i := range v {
				v[i] = float64(i%5) - 1
			}
			ProjectToSimplex(v)
		}); allocs != 0 {
			t.Fatalf("n=%d: %v allocations per projection", n, allocs)
		}
	}
}

// BenchmarkProjectToSimplex projects 560 eight-cell tables, the k-way
// collection of a d=16, k=3 view: through the comparator network
// ProjectToSimplex takes at 8 cells, through the stack sort it takes
// up to 16, and through the allocating reference.
func BenchmarkProjectToSimplex(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	src := make([]float64, 560*8)
	for i := range src {
		src[i] = r.Float64()*1.2 - 0.1
	}
	v := make([]float64, len(src))
	for _, impl := range []struct {
		name string
		f    func([]float64) []float64
	}{{"sort8", ProjectToSimplex}, {"stack16", projectStack}, {"reference", projectToSimplexReference}} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(v, src)
				for t := 0; t < len(v); t += 8 {
					impl.f(v[t : t+8])
				}
			}
		})
	}
}
