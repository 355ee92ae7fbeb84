package bitops

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestOnesCount(t *testing.T) {
	cases := []struct {
		m    uint64
		want int
	}{
		{0, 0}, {1, 1}, {0b1011, 3}, {1 << 39, 1}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := OnesCount(c.m); got != c.want {
			t.Errorf("OnesCount(%#x) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestInnerProductSign(t *testing.T) {
	if got := InnerProductSign(0b11, 0b01); got != -1 {
		t.Errorf("sign(0b11,0b01) = %d, want -1", got)
	}
	if got := InnerProductSign(0b11, 0b11); got != 1 {
		t.Errorf("sign(0b11,0b11) = %d, want 1", got)
	}
	if got := InnerProductSign(0, 0xfff); got != 1 {
		t.Errorf("sign(0,...) = %d, want 1", got)
	}
}

func TestInnerProductSignMultiplicative(t *testing.T) {
	// (-1)^<i,j1 xor j2 restricted...> is not multiplicative in general,
	// but the sign is multiplicative over disjoint splits of i.
	f := func(i1, i2, j uint64) bool {
		i1 &= 0x0f0f
		i2 &= 0xf0f0 // disjoint supports
		return InnerProductSign(i1|i2, j) == InnerProductSign(i1, j)*InnerProductSign(i2, j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsSubset(t *testing.T) {
	if !IsSubset(0b0101, 0b1101) {
		t.Error("0101 should be subset of 1101")
	}
	if IsSubset(0b0011, 0b0101) {
		t.Error("0011 should not be subset of 0101")
	}
	if !IsSubset(0, 0) || !IsSubset(0, 0b111) {
		t.Error("0 is a subset of everything")
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want uint64
	}{
		{0, 0, 1}, {4, 2, 6}, {8, 2, 28}, {16, 2, 120}, {24, 2, 276},
		{8, 3, 56}, {10, 5, 252}, {40, 20, 137846528820},
		{5, -1, 0}, {5, 6, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialSymmetry(t *testing.T) {
	f := func(n, k uint8) bool {
		nn := int(n % 41)
		kk := int(k % 41)
		return Binomial(nn, kk) == Binomial(nn, nn-kk) || kk > nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountAtMostK(t *testing.T) {
	// Paper Section 3.2 example: d=4, k=2 needs C(4,0)+C(4,1)+C(4,2) = 11
	// coefficients; CountAtMostK excludes the constant, so 10.
	if got := CountAtMostK(4, 2); got != 10 {
		t.Errorf("CountAtMostK(4,2) = %d, want 10", got)
	}
	if got := CountAtMostK(8, 2); got != 8+28 {
		t.Errorf("CountAtMostK(8,2) = %d, want 36", got)
	}
	if got := CountAtMostK(3, 5); got != 7 {
		t.Errorf("CountAtMostK(3,5) = %d, want 7 (clamped at d)", got)
	}
}

func TestMasksWithExactlyK(t *testing.T) {
	got := MasksWithExactlyK(4, 2)
	want := []uint64{0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %04b, want %04b", i, got[i], want[i])
		}
	}
}

func TestMasksWithExactlyKCounts(t *testing.T) {
	for d := 1; d <= 16; d++ {
		for k := 0; k <= d; k++ {
			masks := MasksWithExactlyK(d, k)
			if uint64(len(masks)) != Binomial(d, k) {
				t.Fatalf("d=%d k=%d: %d masks, want C=%d", d, k, len(masks), Binomial(d, k))
			}
			for _, m := range masks {
				if bits.OnesCount64(m) != k {
					t.Fatalf("mask %b has wrong popcount", m)
				}
				if m >= 1<<uint(d) {
					t.Fatalf("mask %b out of d=%d range", m, d)
				}
			}
		}
	}
}

func TestMasksWithExactlyKEdge(t *testing.T) {
	if got := MasksWithExactlyK(5, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("k=0 should yield [0], got %v", got)
	}
	if got := MasksWithExactlyK(5, 6); got != nil {
		t.Errorf("k>d should yield nil, got %v", got)
	}
	if got := MasksWithExactlyK(3, 3); len(got) != 1 || got[0] != 0b111 {
		t.Errorf("k=d should yield the full mask, got %v", got)
	}
}

func TestMasksWithAtMostK(t *testing.T) {
	got := MasksWithAtMostK(4, 1, 2)
	if uint64(len(got)) != Binomial(4, 1)+Binomial(4, 2) {
		t.Fatalf("len = %d, want 10", len(got))
	}
	// Sorted by popcount: first four have 1 bit.
	for i := 0; i < 4; i++ {
		if OnesCount(got[i]) != 1 {
			t.Errorf("element %d should have popcount 1", i)
		}
	}
}

func TestCompressExpandExample(t *testing.T) {
	// Paper Example 3.1: d=4, beta=0101 selects attributes 0 and 2
	// (reading masks with bit 0 = first attribute).
	beta := uint64(0b0101)
	if got := Compress(0b0111, beta); got != 0b11 {
		t.Errorf("Compress(0111, 0101) = %b, want 11", got)
	}
	if got := Expand(0b10, beta); got != 0b0100 {
		t.Errorf("Expand(10, 0101) = %04b, want 0100", got)
	}
}

func TestCompressExpandRoundTrip(t *testing.T) {
	f := func(compact, beta uint64) bool {
		beta &= (1 << 24) - 1
		k := OnesCount(beta)
		compact &= (1 << uint(k)) - 1
		return Compress(Expand(compact, beta), beta) == compact
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpandIsSubset(t *testing.T) {
	f := func(compact, beta uint64) bool {
		return IsSubset(Expand(compact, beta), beta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompressIgnoresOutsideBits(t *testing.T) {
	f := func(eta, beta uint64) bool {
		return Compress(eta, beta) == Compress(eta&beta, beta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitPositions(t *testing.T) {
	got := BitPositions(0b101001)
	want := []int{0, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pos[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMaskFromPositions(t *testing.T) {
	if got := MaskFromPositions(0, 3, 5); got != 0b101001 {
		t.Errorf("MaskFromPositions = %b, want 101001", got)
	}
	if got := MaskFromPositions(2, 2); got != 0b100 {
		t.Errorf("duplicates should be idempotent, got %b", got)
	}
	if got := MaskFromPositions(); got != 0 {
		t.Errorf("empty should be 0, got %b", got)
	}
}

func TestMaskFromPositionsRoundTrip(t *testing.T) {
	f := func(m uint64) bool {
		m &= (1 << 40) - 1
		return MaskFromPositions(BitPositions(m)...) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// MaskFromPositions builds a mask with the given bit positions set.
// Duplicate positions are idempotent.
func MaskFromPositions(positions ...int) uint64 {
	var m uint64
	for _, p := range positions {
		m |= 1 << uint(p)
	}
	return m
}
