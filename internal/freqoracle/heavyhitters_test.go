package freqoracle

import (
	"sort"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/rng"
)

// planted builds a population with two planted heavy items over an
// 8-bit domain.
func planted(n int, seed uint64) []uint64 {
	r := rng.New(seed)
	records := make([]uint64, n)
	for i := range records {
		switch {
		case r.Bernoulli(0.30):
			records[i] = 42
		case r.Bernoulli(0.25):
			records[i] = 200
		default:
			records[i] = r.Uint64n(256)
		}
	}
	return records
}

func TestTopKFindsPlantedHeavyHitters(t *testing.T) {
	records := planted(150000, 1)
	for name, mk := range map[string]func() (core.Protocol, error){
		"OLH": func() (core.Protocol, error) {
			return NewOLH(core.Config{D: 8, K: 1, Epsilon: 2})
		},
		"HCMS": func() (core.Protocol, error) {
			return NewHCMS(HCMSConfig{D: 8, K: 1, Epsilon: 2, Seed: 3})
		},
	} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		agg, err := core.Run(p, records, 5, 4)
		if err != nil {
			t.Fatal(err)
		}
		est, err := agg.(interface{ EstimateAll() ([]float64, error) }).EstimateAll()
		if err != nil {
			t.Fatal(err)
		}
		top := make([]int, len(est))
		for i := range top {
			top[i] = i
		}
		sort.Slice(top, func(a, b int) bool { return est[top[a]] > est[top[b]] })
		if top2 := map[int]bool{top[0]: true, top[1]: true}; !top2[42] || !top2[200] {
			t.Errorf("%s: top-2 items = %v, want 42 and 200", name, top[:2])
		}
	}
}
