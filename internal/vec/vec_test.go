package vec

import (
	"math"
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
