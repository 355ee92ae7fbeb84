package hashing

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestMulMod61MatchesBigInt(t *testing.T) {
	p := big.NewInt(MersennePrime61)
	f := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		want := new(big.Int).Mul(big.NewInt(int64(a)), big.NewInt(int64(b)))
		want.Mod(want, p)
		return mulMod61(a, b) == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAddMod61(t *testing.T) {
	if got := addMod61(MersennePrime61-1, 1); got != 0 {
		t.Errorf("addMod61 wraparound = %d, want 0", got)
	}
	if got := addMod61(5, 7); got != 12 {
		t.Errorf("addMod61(5,7) = %d", got)
	}
}

func TestUniversalRange(t *testing.T) {
	u, err := NewUniversal(1, 17)
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x < 10000; x++ {
		if h := u.Hash(x); h >= 17 {
			t.Fatalf("Hash(%d) = %d out of range", x, h)
		}
	}
}

func TestUniversalZeroRangeErr(t *testing.T) {
	if _, err := NewUniversal(1, 0); err == nil {
		t.Error("expected error for m=0")
	}
	if _, err := NewThreeWise(1, 0); err == nil {
		t.Error("expected error for m=0")
	}
}

func TestUniversalDeterministic(t *testing.T) {
	u1, _ := NewUniversal(99, 64)
	u2, _ := NewUniversal(99, 64)
	for x := uint64(0); x < 100; x++ {
		if u1.Hash(x) != u2.Hash(x) {
			t.Fatal("same seed should give same function")
		}
	}
	if u1.m != 64 {
		t.Error("range mismatch")
	}
}

func TestUniversalUniformity(t *testing.T) {
	// Average over many functions: each bucket should receive ~1/m of keys.
	const m, keys, funcs = 8, 64, 500
	counts := make([]int, m)
	for s := uint64(0); s < funcs; s++ {
		u, _ := NewUniversal(s, m)
		for x := uint64(0); x < keys; x++ {
			counts[u.Hash(x)]++
		}
	}
	total := float64(keys * funcs)
	for b, c := range counts {
		got := float64(c) / total
		if math.Abs(got-1.0/m) > 0.01 {
			t.Errorf("bucket %d load %v, want ~%v", b, got, 1.0/m)
		}
	}
}

func TestUniversalPairwiseCollisions(t *testing.T) {
	// Pairwise independence: Pr[h(x)=h(y)] should be ~1/m for x != y.
	const m, funcs = 16, 4000
	pairs := [][2]uint64{{0, 1}, {3, 77}, {1 << 20, 1<<20 + 5}, {12345, 54321}}
	for _, pr := range pairs {
		coll := 0
		for s := uint64(0); s < funcs; s++ {
			u, _ := NewUniversal(s*7+1, m)
			if u.Hash(pr[0]) == u.Hash(pr[1]) {
				coll++
			}
		}
		got := float64(coll) / funcs
		if math.Abs(got-1.0/m) > 0.02 {
			t.Errorf("collision rate for %v = %v, want ~%v", pr, got, 1.0/m)
		}
	}
}

func TestThreeWiseRangeAndDeterminism(t *testing.T) {
	h1, _ := NewThreeWise(5, 256)
	h2, _ := NewThreeWise(5, 256)
	for x := uint64(0); x < 5000; x++ {
		v := h1.Hash(x)
		if v >= 256 {
			t.Fatalf("out of range: %d", v)
		}
		if v != h2.Hash(x) {
			t.Fatal("determinism violated")
		}
	}
	if h1.m != 256 {
		t.Errorf("range = %d, want 256", h1.m)
	}
}

func TestThreeWiseTripleIndependenceSpot(t *testing.T) {
	// For three fixed distinct keys, the joint distribution of hash values
	// over random functions should be close to uniform over m^3 — we spot
	// check the first two marginals and one joint cell with m=2 so that
	// the 8 joint cells each get mass ~1/8.
	const m, funcs = 2, 8000
	keys := [3]uint64{11, 222, 3333}
	jointCounts := map[[3]uint64]int{}
	for s := uint64(0); s < funcs; s++ {
		h, _ := NewThreeWise(s*13+7, m)
		var j [3]uint64
		for i, k := range keys {
			j[i] = h.Hash(k)
		}
		jointCounts[j]++
	}
	for cell, c := range jointCounts {
		got := float64(c) / funcs
		if math.Abs(got-1.0/8) > 0.03 {
			t.Errorf("joint cell %v mass %v, want ~0.125", cell, got)
		}
	}
	if len(jointCounts) != 8 {
		t.Errorf("expected all 8 joint cells to be hit, got %d", len(jointCounts))
	}
}

func TestFamily(t *testing.T) {
	f, err := NewFamily(1, 5, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.fns) != 5 {
		t.Fatalf("family holds %d functions", len(f.fns))
	}
	// Functions should differ from one another.
	same := 0
	for x := uint64(0); x < 100; x++ {
		if f.Hash(0, x) == f.Hash(1, x) {
			same++
		}
	}
	if same > 20 {
		t.Errorf("rows 0 and 1 agree on %d of 100 keys; expected ~1/256 collisions", same)
	}
	if _, err := NewFamily(1, 0, 4); err == nil {
		t.Error("expected error for g=0")
	}
}
