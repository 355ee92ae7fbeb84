package core

import (
	"math"
	"strings"
	"testing"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/rng"
)

// feedReports generates and consumes n deterministic reports.
func feedReports(t *testing.T, p Protocol, agg Aggregator, n int, seed uint64) {
	t.Helper()
	client := p.NewClient()
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		rep, err := client.Perturb(uint64(i)%(1<<uint(p.Config().D)), r)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Consume(rep); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllKWayTablesMatchesEstimate checks each protocol's
// KWayTablesInto, through AllKWayTablesInto, against per-mask Estimate
// calls — bit for bit for the marginal-view accumulators and InpHT,
// within 1e-11 TV for InpRR and InpPS, whose tables come from one
// full-domain transform where Estimate scans — and pins the Users
// semantics of each. InpHTCMS has the same check in internal/freqoracle.
func TestAllKWayTablesMatchesEstimate(t *testing.T) {
	cfg := Config{D: 5, K: 2, Epsilon: 1.2}
	for _, kind := range AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := New(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			agg := p.NewAggregator()
			feedReports(t, p, agg, 2500, uint64(kind)+40)
			arena, err := NewKWayArena(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := AllKWayTablesInto(agg, arena, true); err != nil {
				t.Fatal(err)
			}
			masks := bitops.MasksWithExactlyK(cfg.D, cfg.K)
			if len(arena.Tables) != len(masks) {
				t.Fatalf("got %d tables, want C(%d,%d) = %d", len(arena.Tables), cfg.D, cfg.K, len(masks))
			}
			transform := kind == InpRR || kind == InpPS
			var users int
			for i, got := range arena.Tables {
				if got.Beta != masks[i] {
					t.Fatalf("table %d over %b, want mask order %b", i, got.Beta, masks[i])
				}
				want, err := agg.Estimate(got.Beta)
				if err != nil {
					t.Fatal(err)
				}
				var tv float64
				for c := range want.Cells {
					if !transform && math.Float64bits(got.Cells[c]) != math.Float64bits(want.Cells[c]) {
						t.Fatalf("mask %b cell %d: %v vs Estimate's %v", got.Beta, c, got.Cells[c], want.Cells[c])
					}
					tv += math.Abs(got.Cells[c]-want.Cells[c]) / 2
				}
				if tv > 1e-11 {
					t.Fatalf("mask %b: TV %g from Estimate", got.Beta, tv)
				}
				users += arena.Users[i]
			}
			switch kind {
			case MargRR, MargPS, MargHT:
				// Each user lands in exactly one marginal's accumulator.
				if users != agg.N() {
					t.Errorf("per-marginal users sum to %d, want N=%d", users, agg.N())
				}
			default:
				// Every user informs every table.
				if users != agg.N()*len(masks) {
					t.Errorf("users sum %d, want N*tables=%d", users, agg.N()*len(masks))
				}
			}
		})
	}
}

// TestAllKWayTablesEmptyAggregator checks the N=0 path serves uniform
// tables instead of erroring, so a deployment can publish epoch 1
// before any report arrives.
func TestAllKWayTablesEmptyAggregator(t *testing.T) {
	cfg := Config{D: 5, K: 2, Epsilon: 1.2}
	p, err := New(MargHT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := NewKWayArena(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stale values from an earlier build must not survive.
	for i, tab := range arena.Tables {
		arena.Users[i] = 7
		tab.Cells[0] = 1
	}
	if err := AllKWayTablesInto(p.NewAggregator(), arena, true); err != nil {
		t.Fatal(err)
	}
	for i, tab := range arena.Tables {
		if arena.Users[i] != 0 {
			t.Fatalf("empty aggregator claims %d users for %b", arena.Users[i], tab.Beta)
		}
		for _, c := range tab.Cells {
			if c != 0.25 {
				t.Fatalf("mask %b not uniform: %v", tab.Beta, tab.Cells)
			}
		}
	}
}

// noKWayAgg copies and unmerges exactly but has no KWayTablesInto.
type noKWayAgg struct{ CounterBlock }

func (a *noKWayAgg) Consume(Report) error                     { return nil }
func (a *noKWayAgg) ConsumeBatch([]Report) error              { return nil }
func (a *noKWayAgg) Estimate(uint64) (*marginal.Table, error) { return nil, nil }

type noKWayProtocol struct{ Protocol }

func (noKWayProtocol) NewAggregator() Aggregator {
	return &noKWayAgg{NewCounterBlock("NoKWay", stateKindInpPS, SamplingCounters, 0, 4)}
}

// TestCheckFoldsRefusesAggregatorWithoutKWayTables: serving needs the
// one reconstruction method, so an aggregator that folds but lacks it
// is refused at startup with the served-protocol message, and
// AllKWayTablesInto refuses it too.
func TestCheckFoldsRefusesAggregatorWithoutKWayTables(t *testing.T) {
	cfg := Config{D: 2, K: 1, Epsilon: 1}
	base, err := New(InpPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := noKWayProtocol{base}
	err = CheckFolds(p)
	if err == nil || !strings.Contains(err.Error(), "cannot be served") {
		t.Fatalf("CheckFolds = %v, want the served-protocol refusal", err)
	}
	agg := p.NewAggregator()
	agg.(*noKWayAgg).n = 1
	arena, err := NewKWayArena(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := AllKWayTablesInto(agg, arena, true); err == nil {
		t.Fatal("AllKWayTablesInto reconstructed an aggregator without KWayTablesInto")
	}
	if err := CheckFolds(base); err != nil {
		t.Fatalf("InpPS refused: %v", err)
	}
}
