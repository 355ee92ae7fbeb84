package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/rng"
)

// shardedTestConfig is the paper's default experimental setting; small
// enough that all six protocols (including the 2^d-materializing input
// view) run fast.
func shardedTestConfig() Config {
	return Config{D: 8, K: 2, Epsilon: 1.1, OptimizedPRR: true}
}

// perturbReports generates n deterministic reports under a fixed seed.
func perturbReports(t *testing.T, p Protocol, n int, seed uint64) []Report {
	t.Helper()
	client := p.NewClient()
	r := rng.New(seed)
	reps := make([]Report, 0, n)
	for i := 0; i < n; i++ {
		rep, err := client.Perturb(uint64(i%256), r)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	return reps
}

// assertTablesBitIdentical compares every answerable marginal of the two
// aggregators cell-by-cell at full float64 precision.
func assertTablesBitIdentical(t *testing.T, got, want Aggregator, cfg Config) {
	t.Helper()
	for _, beta := range bitops.MasksWithAtMostK(cfg.D, 1, cfg.K) {
		g, err := got.Estimate(beta)
		if err != nil {
			t.Fatalf("estimate %b: %v", beta, err)
		}
		w, err := want.Estimate(beta)
		if err != nil {
			t.Fatalf("reference estimate %b: %v", beta, err)
		}
		if len(g.Cells) != len(w.Cells) {
			t.Fatalf("beta %b: %d cells vs %d", beta, len(g.Cells), len(w.Cells))
		}
		for c := range w.Cells {
			if math.Float64bits(g.Cells[c]) != math.Float64bits(w.Cells[c]) {
				t.Fatalf("beta %b cell %d: sharded %v, sequential %v", beta, c, g.Cells[c], w.Cells[c])
			}
		}
	}
}

// TestShardedEquivalentToSequential is the core guarantee of the sharded
// pipeline: for every protocol, a ShardedAggregator fed a fixed report
// stream concurrently — through interleaved long batches and batches of
// one report — snapshots to byte-identical marginal tables to a
// sequential aggregator fed the same stream. Aggregation state is integer counters,
// so shard partitioning and arrival order are invisible in the estimate.
func TestShardedEquivalentToSequential(t *testing.T) {
	for _, kind := range AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := New(kind, shardedTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			reps := perturbReports(t, p, 2000, 42)

			seq := p.NewAggregator()
			if err := seq.ConsumeBatch(reps); err != nil {
				t.Fatal(err)
			}

			sh := NewSharded(p, 7)
			// Feed concurrently: 8 writers, alternating batch and
			// single-report ingestion over disjoint slices.
			const writers = 8
			chunk := (len(reps) + writers - 1) / writers
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for w := 0; w < writers; w++ {
				lo, hi := w*chunk, min((w+1)*chunk, len(reps))
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(w, lo, hi int) {
					defer wg.Done()
					slice := reps[lo:hi]
					if w%2 == 0 {
						if err := sh.ConsumeBatch(slice); err != nil {
							errs <- err
						}
						return
					}
					for i := range slice {
						if err := sh.ConsumeBatch(slice[i : i+1]); err != nil {
							errs <- err
							return
						}
					}
				}(w, lo, hi)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			if sh.N() != len(reps) || seq.N() != len(reps) {
				t.Fatalf("sharded N=%d sequential N=%d, want %d", sh.N(), seq.N(), len(reps))
			}

			// The snapshot must answer identically and count identically.
			snap, err := sh.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if snap.N() != len(reps) {
				t.Fatalf("snapshot N=%d, want %d", snap.N(), len(reps))
			}
			assertTablesBitIdentical(t, snap, seq, shardedTestConfig())
		})
	}
}

// TestShardedMerge folds a sequential aggregator (a recovered state) into
// a sharded one that already holds reports, checking counts and
// estimates survive the fold.
func TestShardedMerge(t *testing.T) {
	p, err := New(InpHT, shardedTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	reps := perturbReports(t, p, 1200, 9)
	a, b := NewSharded(p, 3), NewSharded(p, 5)
	if err := a.ConsumeBatch(reps[:500]); err != nil {
		t.Fatal(err)
	}
	if err := b.ConsumeBatch(reps[500:]); err != nil {
		t.Fatal(err)
	}
	recovered, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(recovered); err != nil {
		t.Fatal(err)
	}
	if a.N() != len(reps) {
		t.Fatalf("merged N=%d, want %d", a.N(), len(reps))
	}
	seq := p.NewAggregator()
	if err := seq.ConsumeBatch(reps); err != nil {
		t.Fatal(err)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	assertTablesBitIdentical(t, snap, seq, shardedTestConfig())
}

// TestShardedRejectsBadReports checks that rejected reports are not
// counted, for a batch of one and a longer batch, and that the batch
// error carries the index of the first rejected report.
func TestShardedRejectsBadReports(t *testing.T) {
	p, err := New(InpHT, shardedTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	sh := NewSharded(p, 4)
	good := perturbReports(t, p, 3, 1)
	bad := Report{Index: 0b11111111, Sign: 1} // |alpha| > k: outside T
	if err := sh.ConsumeBatch([]Report{bad}); err == nil {
		t.Fatal("bad report accepted")
	}
	if sh.N() != 0 {
		t.Fatalf("rejected report counted: N=%d", sh.N())
	}
	batch := []Report{good[0], good[1], bad, good[2]}
	err = sh.ConsumeBatch(batch)
	if err == nil {
		t.Fatal("bad batch accepted")
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 2 {
		t.Fatalf("batch error = %v, want *BatchError at index 2", err)
	}
	if sh.N() != 2 {
		t.Fatalf("N=%d after partial batch, want 2", sh.N())
	}
}

// TestNewShardedDefaults pins the shard-count defaulting.
func TestNewShardedDefaults(t *testing.T) {
	p, err := New(MargPS, shardedTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(NewSharded(p, 0).shards); got < 1 {
		t.Fatalf("default shards = %d", got)
	}
	if got := len(NewSharded(p, 3).shards); got != 3 {
		t.Fatalf("explicit shards = %d, want 3", got)
	}
}
