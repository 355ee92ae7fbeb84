// Package bitops provides bit-level utilities over attribute index masks.
//
// Throughout this module a "mask" is a uint64 whose low d bits identify a
// subset of d binary attributes. A user record is likewise a uint64 whose
// bit a holds the value of attribute a, so a record is simultaneously an
// index into the 2^d cell contingency table. The paper's index set {0,1}^d
// maps directly onto these masks.
package bitops

import "math/bits"

// MaxAttributes is the largest attribute count supported by the mask
// representation. Masks are uint64, and several enumeration helpers build
// slices indexed by masks of up to MaxAttributes bits.
const MaxAttributes = 40

// OnesCount returns |m|, the number of set bits in m.
func OnesCount(m uint64) int { return bits.OnesCount64(m) }

// InnerProductSign returns (-1)^<i,j> where <i,j> counts the bit positions
// on which i and j are both 1. This is the sign of the Hadamard matrix
// entry phi_{i,j} (Definition 3.5 of the paper).
func InnerProductSign(i, j uint64) int {
	if bits.OnesCount64(i&j)&1 == 1 {
		return -1
	}
	return 1
}

// IsSubset reports whether every set bit of a is also set in b, i.e.
// a is a sub-mask of b. This is the paper's relation a ⪯ b.
func IsSubset(a, b uint64) bool { return a&b == a }

// Binomial returns C(n, k), the number of k-element subsets of an n-set.
// It returns 0 when k < 0 or k > n. Results are exact for the parameter
// ranges supported by MaxAttributes (values fit easily in uint64).
func Binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c uint64 = 1
	for i := 0; i < k; i++ {
		c = c * uint64(n-i) / uint64(i+1)
	}
	return c
}

// CountAtMostK returns the number of masks over d bits with between 1 and
// k set bits inclusive: sum_{l=1..k} C(d, l). This is |T|, the size of the
// Hadamard coefficient set needed for full k-way marginal reconstruction
// (Section 4.2), excluding the constant alpha = 0 coefficient.
func CountAtMostK(d, k int) uint64 {
	var total uint64
	for l := 1; l <= k && l <= d; l++ {
		total += Binomial(d, l)
	}
	return total
}

// MasksWithExactlyK returns all masks over d bits that have exactly k set
// bits, in increasing numeric order. It returns an empty slice when k > d
// or k < 0.
func MasksWithExactlyK(d, k int) []uint64 {
	if k < 0 || k > d {
		return nil
	}
	if k == 0 {
		return []uint64{0}
	}
	out := make([]uint64, 0, Binomial(d, k))
	// Gosper's hack: iterate k-subsets in increasing order.
	v := uint64(1)<<k - 1
	limit := uint64(1) << d
	for v < limit {
		out = append(out, v)
		c := v & -v
		r := v + c
		v = (((r ^ v) >> 2) / c) | r
		if r == 0 { // overflow guard for k == d at word edge
			break
		}
	}
	return out
}

// MasksWithAtMostK returns all masks over d bits with between minK and
// maxK set bits inclusive, ordered by popcount then numerically.
func MasksWithAtMostK(d, minK, maxK int) []uint64 {
	if minK < 0 {
		minK = 0
	}
	if maxK > d {
		maxK = d
	}
	var out []uint64
	for k := minK; k <= maxK; k++ {
		out = append(out, MasksWithExactlyK(d, k)...)
	}
	return out
}

// Compress maps a full-domain index eta to its compact index within the
// marginal identified by beta: the bits of eta at beta's set positions are
// packed, in order of increasing position, into the low |beta| bits of the
// result. Bits of eta outside beta are ignored, so Compress(eta, beta) ==
// Compress(eta&beta, beta).
func Compress(eta, beta uint64) uint64 {
	var out, outBit uint64
	outBit = 1
	for b := beta; b != 0; b &= b - 1 {
		low := b & -b
		if eta&low != 0 {
			out |= outBit
		}
		outBit <<= 1
	}
	return out
}

// Expand is the inverse of Compress: it scatters the low |beta| bits of
// compact back to beta's set positions, producing a full-domain mask that
// is a sub-mask of beta.
func Expand(compact, beta uint64) uint64 {
	var out uint64
	bit := uint64(1)
	for b := beta; b != 0; b &= b - 1 {
		low := b & -b
		if compact&bit != 0 {
			out |= low
		}
		bit <<= 1
	}
	return out
}

// BitPositions returns the positions (ascending) of the set bits of m.
func BitPositions(m uint64) []int {
	out := make([]int, 0, OnesCount(m))
	for b := m; b != 0; b &= b - 1 {
		out = append(out, bits.TrailingZeros64(b))
	}
	return out
}
