package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// invalidReports returns, for the protocol, one decodable report per
// way its aggregator can reject one.
func invalidReports(kind Kind, cfg Config) []Report {
	kway := uint64(1)<<uint(cfg.K) - 1   // the first collected marginal
	wide := uint64(1)<<uint(cfg.K+1) - 1 // |beta| = k+1: outside C and T
	switch kind {
	case InpRR:
		return []Report{{Bits: make([]uint64, 1<<uint(cfg.D)/64+1)}, {}}
	case InpPS:
		return []Report{{Index: 1 << uint(cfg.D)}, {Index: 1 << 40}}
	case InpHT:
		return []Report{{Index: wide, Sign: 1}, {Index: 0, Sign: 1}, {Index: 1 << uint(cfg.D), Sign: 1}, {Index: 1 << 45, Sign: -1}, {Index: 1, Sign: 0}, {Index: 1, Sign: 2}}
	case MargRR:
		return []Report{{Beta: wide, Bits: []uint64{0}}, {Beta: kway, Bits: []uint64{0, 0}}, {Beta: kway}}
	case MargPS:
		return []Report{{Beta: wide, Index: 1}, {Beta: 1, Index: 1}, {Beta: 1 << uint(cfg.D), Index: 1}, {Beta: 1 << 45, Index: 1}, {Beta: kway, Index: 1 << uint(cfg.K)}}
	case MargHT:
		return []Report{{Beta: wide, Index: 1, Sign: 1}, {Beta: 1 << uint(cfg.D), Index: 1, Sign: 1}, {Beta: 1 << 45, Index: 1, Sign: 1}, {Beta: kway, Index: 0, Sign: 1}, {Beta: kway, Index: 1 << uint(cfg.K), Sign: 1}, {Beta: kway, Index: 1, Sign: 0}, {Beta: kway, Index: 1, Sign: -2}}
	}
	return nil
}

// TestConsumeBatchMatchesConsume pins ConsumeBatch to the contract the
// four index protocols' hand-written loops must keep: for a clean batch
// and for a batch with an invalid report first, in the middle or last,
// it leaves byte-for-byte the state, the N and the error index that
// feeding the same reports to Consume one by one does. d=8 runs the
// dense position table, d=24 the hash-map fallback above denseMaskBits.
func TestConsumeBatchMatchesConsume(t *testing.T) {
	const n = 64
	for _, kind := range AllKinds() {
		for _, d := range []int{8, 24} {
			cfg := Config{D: d, K: 2, Epsilon: 1.1, OptimizedPRR: true}
			p, err := New(kind, cfg)
			if err != nil {
				if d > MaxInputAttributes {
					continue // InpRR, InpPS materialize 2^d cells
				}
				t.Fatal(err)
			}
			good := perturbReports(t, p, n, 11)
			cases := map[string][]Report{"clean": good}
			for i, bad := range invalidReports(kind, cfg) {
				for _, at := range []int{0, n / 2, n - 1} {
					reps := append([]Report(nil), good...)
					reps[at] = bad
					cases[fmt.Sprintf("bad%d@%d", i, at)] = reps
				}
			}
			for name, reps := range cases {
				t.Run(fmt.Sprintf("%v/d=%d/%s", kind, d, name), func(t *testing.T) {
					one, batch := p.NewAggregator(), p.NewAggregator()
					wantIdx := -1
					var wantErr error
					for i, rep := range reps {
						if wantErr = one.Consume(rep); wantErr != nil {
							wantIdx = i
							break
						}
					}
					if (name == "clean") != (wantIdx == -1) {
						t.Fatalf("Consume stopped at %d", wantIdx)
					}
					err := batch.ConsumeBatch(reps)
					gotIdx := -1
					var be *BatchError
					if errors.As(err, &be) {
						gotIdx = be.Index
					} else if err != nil {
						t.Fatalf("ConsumeBatch error %v is not a *BatchError", err)
					}
					if gotIdx != wantIdx {
						t.Fatalf("BatchError.Index = %d, Consume stopped at %d", gotIdx, wantIdx)
					}
					if wantErr != nil && be.Err.Error() != wantErr.Error() {
						t.Fatalf("BatchError.Err = %q, Consume said %q", be.Err, wantErr)
					}
					if batch.N() != one.N() {
						t.Fatalf("N = %d after ConsumeBatch, %d after Consume", batch.N(), one.N())
					}
					want, err := one.MarshalState()
					if err != nil {
						t.Fatal(err)
					}
					got, err := batch.MarshalState()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatal("state after ConsumeBatch differs from state after Consume")
					}
				})
			}
		}
	}
}
