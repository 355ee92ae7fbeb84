// Package hashing provides the hash families required by the frequency
// oracle baselines of Appendix B.2: a universal (pairwise-independent)
// family for optimized local hashing (InpOLH), and a 3-wise independent
// polynomial family for the Hadamard count-min sketch (InpHTCMS).
//
// Both families are built on arithmetic modulo the Mersenne prime
// 2^61 - 1, which supports exact modular multiplication of 61-bit values
// using 128-bit intermediate products (math/bits.Mul64).
package hashing

import (
	"fmt"
	"math/bits"

	"ldpmarginals/internal/rng"
)

// MersennePrime61 is the modulus 2^61 - 1 used by both families.
const MersennePrime61 = (1 << 61) - 1

// mulMod61 returns a*b mod 2^61-1 using a 128-bit intermediate.
func mulMod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// Split the 128-bit product into 61-bit chunks: the product equals
	// lo + hi*2^64 = lo + hi*8*2^61; since 2^61 ≡ 1 (mod p), fold chunks.
	res := (lo & MersennePrime61) + ((lo >> 61) | (hi << 3 & MersennePrime61)) + (hi >> 58)
	for res >= MersennePrime61 {
		res -= MersennePrime61
	}
	return res
}

// addMod61 returns a+b mod 2^61-1 for a, b < 2^61-1.
func addMod61(a, b uint64) uint64 {
	s := a + b
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// Universal is a pairwise-independent hash function h(x) = ((a*x + b) mod
// p) mod m mapping uint64 keys to [0, m). The (a, b) coefficients are the
// per-user random "hash choice" communicated to the aggregator in OLH; the
// whole function is identified by the seed it is drawn from.
type Universal struct {
	a, b uint64
	m    uint64
}

// NewUniversal draws a function uniformly from the universal family with
// range [0, m), deterministically from seed. It returns an error when
// m == 0.
func NewUniversal(seed uint64, m uint64) (*Universal, error) {
	if m == 0 {
		return nil, fmt.Errorf("hashing: universal hash range must be positive")
	}
	r := rng.New(seed ^ 0x5bf03635)
	a := r.Uint64n(MersennePrime61-1) + 1 // a in [1, p-1]
	b := r.Uint64n(MersennePrime61)       // b in [0, p-1]
	return &Universal{a: a, b: b, m: m}, nil
}

// Hash returns h(x) in [0, m).
func (u *Universal) Hash(x uint64) uint64 {
	// Reduce x into the field first (2^61-1 < 2^64).
	x %= MersennePrime61
	return addMod61(mulMod61(u.a, x), u.b) % u.m
}

// ThreeWise is a 3-wise independent hash function h(x) = ((a*x^2 + b*x +
// c) mod p) mod m. Degree-2 polynomials over a field are exactly 3-wise
// independent, which is the guarantee the count-min sketch analysis needs.
type ThreeWise struct {
	a, b, c uint64
	m       uint64
}

// NewThreeWise draws a function from the 3-wise independent family with
// range [0, m), deterministically from seed. It returns an error when
// m == 0.
func NewThreeWise(seed uint64, m uint64) (*ThreeWise, error) {
	if m == 0 {
		return nil, fmt.Errorf("hashing: 3-wise hash range must be positive")
	}
	r := rng.New(seed ^ 0x9d2c5680)
	return &ThreeWise{
		a: r.Uint64n(MersennePrime61-1) + 1,
		b: r.Uint64n(MersennePrime61),
		c: r.Uint64n(MersennePrime61),
		m: m,
	}, nil
}

// Hash returns h(x) in [0, m).
func (h *ThreeWise) Hash(x uint64) uint64 {
	x %= MersennePrime61
	x2 := mulMod61(x, x)
	v := addMod61(addMod61(mulMod61(h.a, x2), mulMod61(h.b, x)), h.c)
	return v % h.m
}

// Family is a fixed collection of g independent 3-wise hash functions
// sharing a range, as used by the count-min sketch (one row per function).
type Family struct {
	fns []*ThreeWise
}

// NewFamily builds g independent ThreeWise functions with range [0, m)
// from a base seed.
func NewFamily(seed uint64, g int, m uint64) (*Family, error) {
	if g <= 0 {
		return nil, fmt.Errorf("hashing: family size must be positive, got %d", g)
	}
	fns := make([]*ThreeWise, g)
	base := rng.New(seed)
	for i := range fns {
		fn, err := NewThreeWise(base.Uint64(), m)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	return &Family{fns: fns}, nil
}

// Hash applies the i-th function to x.
func (f *Family) Hash(i int, x uint64) uint64 { return f.fns[i].Hash(x) }
