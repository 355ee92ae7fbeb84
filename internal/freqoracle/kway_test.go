package freqoracle

import (
	"math"
	"testing"

	"ldpmarginals/internal/core"
)

// hcmsFed returns an InpHTCMS deployment at (d, k) and an aggregator fed
// n reports of deterministic records.
func hcmsFed(tb testing.TB, d, k, n int) (*HCMS, core.Aggregator) {
	tb.Helper()
	h, err := NewHCMS(HCMSConfig{D: d, K: k, Epsilon: 1.1, Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	records := make([]uint64, n)
	for i := range records {
		records[i] = uint64(i*2654435761) % (1 << uint(d))
	}
	agg, err := core.Run(h, records, 3, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return h, agg
}

// TestHCMSKWayTablesMatchesEstimate holds InpHTCMS's served collection —
// one EstimateAll summed into every table through one full-domain
// transform — against per-mask Estimate, which sums the same
// frequencies cell by cell: within 1e-11 TV per table, with Users = N,
// at d=5 k=2 and at the wide served shape d=16 k=3. Estimate recomputes
// EstimateAll per call, so the reference sums one EstimateAll per shape
// as Estimate does, checked bit for bit against Estimate on one mask.
func TestHCMSKWayTablesMatchesEstimate(t *testing.T) {
	for _, tc := range []struct{ d, k, n int }{{5, 2, 2500}, {16, 3, 20000}} {
		h, agg := hcmsFed(t, tc.d, tc.k, tc.n)
		if err := core.CheckFolds(h); err != nil {
			t.Fatal(err)
		}
		arena, err := core.NewKWayArena(h.Config())
		if err != nil {
			t.Fatal(err)
		}
		if err := core.AllKWayTablesInto(agg, arena, true); err != nil {
			t.Fatal(err)
		}
		freqs, err := agg.(*hcmsAgg).EstimateAll()
		if err != nil {
			t.Fatal(err)
		}
		for i, beta := range arena.Masks {
			want, err := tableFromFrequencies(freqs, beta)
			if err != nil {
				t.Fatal(err)
			}
			if i == len(arena.Masks)/2 {
				est, err := agg.Estimate(beta)
				if err != nil {
					t.Fatal(err)
				}
				for c := range est.Cells {
					if math.Float64bits(est.Cells[c]) != math.Float64bits(want.Cells[c]) {
						t.Fatalf("d=%d: reference for %b is not Estimate's", tc.d, beta)
					}
				}
			}
			var tv float64
			for c, w := range want.Cells {
				tv += math.Abs(arena.Tables[i].Cells[c]-w) / 2
			}
			if tv > 1e-11 {
				t.Fatalf("d=%d k=%d: table %b is TV %g from Estimate", tc.d, tc.k, beta, tv)
			}
			if arena.Users[i] != tc.n {
				t.Fatalf("d=%d k=%d: table %b users %d, want N=%d", tc.d, tc.k, beta, arena.Users[i], tc.n)
			}
		}
	}
}

// BenchmarkHCMSKWayTables reconstructs the InpHTCMS collection at
// d=16 k=3 (560 tables) from 20,000 reports, EstimateAll included.
func BenchmarkHCMSKWayTables(b *testing.B) {
	h, agg := hcmsFed(b, 16, 3, 20000)
	arena, err := core.NewKWayArena(h.Config())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.AllKWayTablesInto(agg, arena, true); err != nil {
			b.Fatal(err)
		}
	}
}
