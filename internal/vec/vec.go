// Package vec provides dense float64 vector and probability-distribution
// helpers shared by the estimators, aggregators, and applications.
package vec

import (
	"fmt"
	"math"
	"sort"
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
// computations, which require genuine distributions.
func ProjectToSimplex(v []float64) []float64 {
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
