// Package rng implements the deterministic pseudo-random number generator
// used by every randomized component in this repository.
//
// The generator is xoshiro256** seeded through splitmix64, which gives
// high-quality 64-bit streams from a single word seed and supports cheap
// forking of independent streams for parallel simulation. All experiment
// code takes explicit seeds so results are reproducible run-to-run.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; fork one per goroutine with Fork.
type RNG struct {
	s [4]uint64
	// cached spare normal deviate for Gaussian (Marsaglia polar method)
	spare    float64
	hasSpare bool
}

// splitmix64 advances *x and returns the next output of the splitmix64
// sequence. It is used for seeding only.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	s := seed
	for i := range r.s {
		r.s[i] = splitmix64(&s)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Fork derives an independent generator from r. The child stream is a
// deterministic function of r's current state, and forking advances r, so
// successive forks are distinct.
func (r *RNG) Fork() *RNG {
	return New(r.Uint64() ^ 0xd3833e804f4c574b)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching the
// contract of math/rand.Intn.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits to avoid modulo bias.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Bernoulli returns true with probability p. Probabilities outside [0,1]
// are clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a standard normal deviate via the Marsaglia polar method.
func (r *RNG) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			factor := math.Sqrt(-2 * math.Log(s) / s)
			r.spare = v * factor
			r.hasSpare = true
			return u * factor
		}
	}
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Binomial samples the number of successes in n independent Bernoulli(p)
// trials. Small cases are sampled exactly; when n*p*(1-p) is large the
// normal approximation (rounded and clamped to [0, n]) is used, which
// preserves the mean and variance that the protocol simulations rely on.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if variance := float64(n) * p * (1 - p); variance > 100 {
		mean := float64(n) * p
		k := int(math.Round(mean + r.Normal()*math.Sqrt(variance)))
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
	k := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			k++
		}
	}
	return k
}
