// Continual-release benchmarks: the cost of sliding the window by one
// bucket. One benchmark operation fills the live bucket off-timer, then
// pays the bucket boundary on-timer — seal the live bucket, expire the
// oldest one, and publish a fresh epoch over the new window. The
// expiry-fold path retires a bucket with one Unmerge of its frozen
// sealed state and refreshes through the incremental engine; the full
// rebuild is the pre-window architecture for the same slide: re-merge
// every retained bucket and run a standalone view.Build (the same build,
// so the gap is the state movement). The numbers across d in
// {8, 12, 16} are recorded in BENCH_window.json.
package ldpmarginals_test

import (
	"fmt"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/view"
	"ldpmarginals/internal/window"
)

const (
	// benchWindowBuckets is the window capacity in buckets (including
	// the live one); benchWindowBase reports cover a full window, spread
	// evenly across the buckets.
	benchWindowBuckets = 8
	benchWindowBase    = 1 << 16
)

// windowBenchSetup builds a ring whose window is one bucket short of
// full — benchWindowBuckets-1 sealed buckets and an empty live one — so
// the steady-state loop (fill live, cross one boundary) seals and
// expires exactly one bucket per operation. fill ingests one bucket's
// population into the live bucket; advance crosses the next bucket
// boundary.
func windowBenchSetup(b *testing.B, kind core.Kind, d int) (p core.Protocol, r *window.Ring, fill, advance func()) {
	b.Helper()
	cfg := core.Config{D: d, K: 3, Epsilon: 1.0986, OptimizedPRR: true}
	p, err := core.New(kind, cfg)
	if err != nil {
		b.Fatal(err)
	}
	client := p.NewClient()
	rg := rng.New(20260807)
	reps := make([]core.Report, benchWindowBase/benchWindowBuckets)
	for i := range reps {
		rep, err := client.Perturb(uint64(i)%(1<<uint(d)), rg)
		if err != nil {
			b.Fatal(err)
		}
		reps[i] = rep
	}
	base := time.Unix(1754500000, 0)
	r, err = window.NewRing(p, window.Options{
		Window: benchWindowBuckets * time.Minute,
		Bucket: time.Minute,
		Shards: 4,
		Start:  base,
	})
	if err != nil {
		b.Fatal(err)
	}
	now := base
	fill = func() {
		// Mirror the server's batch path: one ~1024-report chunk per
		// shard lock.
		for lo := 0; lo < len(reps); lo += 1024 {
			hi := min(lo+1024, len(reps))
			if err := r.ConsumeBatch(reps[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
	advance = func() {
		now = now.Add(time.Minute)
		if _, _, err := r.Advance(now); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < benchWindowBuckets-1; i++ {
		fill()
		advance()
	}
	return p, r, fill, advance
}

// windowBenchProtocols mirrors the view-refresh benchmarks: the paper's
// overall winner (InpHT, compact coefficient state) and an input-view
// protocol (InpPS) with 2^d counters per bucket — the workload where
// the expiry fold saves the most state movement.
var windowBenchProtocols = []core.Kind{core.InpHT, core.InpPS}

// BenchmarkWindowExpiryFold is the continual-release retire path: the
// boundary crossing seals the live bucket (one Merge of its snapshot)
// and expires the oldest (one Unmerge of its frozen state), and the
// incremental engine folds just those deltas into its arena before
// re-running the nonlinear build stage.
func BenchmarkWindowExpiryFold(b *testing.B) {
	for _, kind := range windowBenchProtocols {
		for _, d := range []int{8, 12, 16} {
			b.Run(fmt.Sprintf("%s/d=%d", kind, d), func(b *testing.B) {
				p, ring, fill, advance := windowBenchSetup(b, kind, d)
				eng, err := view.NewEngine(ring, p, view.EngineOptions{})
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fill()
					b.StartTimer()
					advance()
					if _, err := eng.Refresh(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWindowFullRebuild is the same slide without the fold: every
// boundary crossing re-merges all retained buckets into a fresh
// snapshot and pays a standalone view.Build — O(window) state movement
// per epoch where the expiry fold pays O(bucket).
func BenchmarkWindowFullRebuild(b *testing.B) {
	for _, kind := range windowBenchProtocols {
		for _, d := range []int{8, 12, 16} {
			b.Run(fmt.Sprintf("%s/d=%d", kind, d), func(b *testing.B) {
				p, ring, fill, advance := windowBenchSetup(b, kind, d)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fill()
					b.StartTimer()
					advance()
					snap, err := ring.Snapshot()
					if err != nil {
						b.Fatal(err)
					}
					if _, err := view.Build(snap, p, view.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
