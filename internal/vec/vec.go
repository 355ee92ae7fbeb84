// Package vec provides dense float64 vector and probability-distribution
// helpers shared by the estimators, aggregators, and applications.
package vec

import (
	"fmt"
	"math"
	"slices"
)

// Uniform returns the uniform distribution over n cells.
func Uniform(n int) []float64 {
	u := make([]float64, n)
	for i := range u {
		u[i] = 1 / float64(n)
	}
	return u
}

// Sum returns the sum of the entries of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// L1Dist returns the L1 distance between a and b. It panics if lengths
// differ, which always indicates a programming error in this repository.
func L1Dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: L1Dist length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// TVDist returns the total variation distance 0.5*||a-b||_1 (Definition
// 3.4 of the paper).
func TVDist(a, b []float64) float64 {
	return 0.5 * L1Dist(a, b)
}

// MaxAbsDiff returns the L-infinity distance between a and b.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: MaxAbsDiff length mismatch %d vs %d", len(a), len(b)))
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Scale multiplies every entry of v by c in place and returns v.
func Scale(v []float64, c float64) []float64 {
	for i := range v {
		v[i] *= c
	}
	return v
}

// Add adds b into a element-wise in place and returns a.
func Add(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Add length mismatch %d vs %d", len(a), len(b)))
	}
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Normalize scales v in place so its entries sum to 1. If the sum is not
// positive it resets v to uniform. Returns v.
func Normalize(v []float64) []float64 {
	s := Sum(v)
	if s <= 0 {
		copy(v, Uniform(len(v)))
		return v
	}
	return Scale(v, 1/s)
}

// ProjectToSimplex projects v in place onto the probability simplex
// (non-negative, sums to 1) in Euclidean distance, using the standard
// sort-and-threshold algorithm. This is the post-processing step used
// before feeding estimated marginals to chi-squared or mutual-information
// computations, which require genuine distributions. Up to 16 cells (a
// table over 4 attributes) it sorts in stack scratch and allocates
// nothing.
func ProjectToSimplex(v []float64) []float64 {
	n := len(v)
	switch {
	case n == 0:
		return v
	case n == 8 && !hasNaN(v):
		var buf [8]float64
		sort8(&buf, (*[8]float64)(v))
		return projectSorted(v, buf[:])
	case n <= 16:
		return projectStack(v)
	}
	sorted := slices.Clone(v)
	slices.Sort(sorted)
	return projectSorted(v, sorted)
}

// projectStack is ProjectToSimplex for up to 16 cells, sorting them in
// stack scratch.
func projectStack(v []float64) []float64 {
	var buf [16]float64
	sorted := buf[:copy(buf[:], v)]
	slices.Sort(sorted)
	return projectSorted(v, sorted)
}

// sort8 sorts x into dst ascending with a 19-comparator network over
// order-preserving integer keys, branch-free: the 8 cells of a 3-way
// table. A NaN would sort by its bits, so callers keep them out.
func sort8(dst, x *[8]float64) {
	a0, a1, a2, a3 := floatKey(x[0]), floatKey(x[1]), floatKey(x[2]), floatKey(x[3])
	a4, a5, a6, a7 := floatKey(x[4]), floatKey(x[5]), floatKey(x[6]), floatKey(x[7])
	a0, a2 = min(a0, a2), max(a0, a2)
	a1, a3 = min(a1, a3), max(a1, a3)
	a4, a6 = min(a4, a6), max(a4, a6)
	a5, a7 = min(a5, a7), max(a5, a7)
	a0, a4 = min(a0, a4), max(a0, a4)
	a1, a5 = min(a1, a5), max(a1, a5)
	a2, a6 = min(a2, a6), max(a2, a6)
	a3, a7 = min(a3, a7), max(a3, a7)
	a0, a1 = min(a0, a1), max(a0, a1)
	a2, a3 = min(a2, a3), max(a2, a3)
	a4, a5 = min(a4, a5), max(a4, a5)
	a6, a7 = min(a6, a7), max(a6, a7)
	a2, a4 = min(a2, a4), max(a2, a4)
	a3, a5 = min(a3, a5), max(a3, a5)
	a1, a4 = min(a1, a4), max(a1, a4)
	a3, a6 = min(a3, a6), max(a3, a6)
	a1, a2 = min(a1, a2), max(a1, a2)
	a3, a4 = min(a3, a4), max(a3, a4)
	a5, a6 = min(a5, a6), max(a5, a6)
	dst[0], dst[1], dst[2], dst[3] = keyFloat(a0), keyFloat(a1), keyFloat(a2), keyFloat(a3)
	dst[4], dst[5], dst[6], dst[7] = keyFloat(a4), keyFloat(a5), keyFloat(a6), keyFloat(a7)
}

// floatKey maps a number to an int64 that orders as the number does
// (-0 below +0): a negative number's bits below the sign are inverted.
// Applied to the key, the same inversion gives the number back.
func floatKey(x float64) int64 {
	b := int64(math.Float64bits(x))
	return b ^ int64(uint64(b>>63)>>1)
}

// keyFloat is the inverse of floatKey.
func keyFloat(k int64) float64 {
	return math.Float64frombits(uint64(k ^ int64(uint64(k>>63)>>1)))
}

// hasNaN reports whether any entry of v is NaN.
func hasNaN(v []float64) bool {
	for _, x := range v {
		if x != x {
			return true
		}
	}
	return false
}

// projectSorted finishes ProjectToSimplex given v's cells sorted
// ascending, NaNs first as sort.Float64Slice orders them; it walks them
// from the largest down.
func projectSorted(v, sorted []float64) []float64 {
	n := len(v)
	var cumulative, theta float64
	k := 0
	for i := 1; i <= n; i++ {
		x := sorted[n-i]
		cumulative += x
		t := (cumulative - 1) / float64(i)
		if x-t > 0 {
			theta = t
			k = i
		}
	}
	if k == 0 {
		u := 1 / float64(n)
		for i := range v {
			v[i] = u
		}
		return v
	}
	for i, x := range v {
		// math.Max(0, x-theta), inlined: a NaN stays NaN, and -0 and
		// everything below 0 become +0.
		switch d := x - theta; {
		case d > 0:
			v[i] = d
		case d == d:
			v[i] = 0
		default:
			v[i] = math.NaN()
		}
	}
	return v
}
