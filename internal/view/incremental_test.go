package view

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/window"
)

// incCfg is the shared shape of the incremental equivalence tests.
func incCfg() core.Config {
	return core.Config{D: 6, K: 3, Epsilon: 1.1, OptimizedPRR: true}
}

func incReports(tb testing.TB, p core.Protocol, n int, seed uint64) []core.Report {
	tb.Helper()
	return perturb(tb, p, n, seed)
}

// assertViewsBitIdentical compares every in-contract marginal of two
// views bit for bit.
func assertViewsBitIdentical(tb testing.TB, label string, a, b *View, cfg core.Config) {
	tb.Helper()
	for _, beta := range bitops.MasksWithAtMostK(cfg.D, 1, cfg.K) {
		ta, err := a.Marginal(beta)
		if err != nil {
			tb.Fatal(err)
		}
		tBb, err := b.Marginal(beta)
		if err != nil {
			tb.Fatal(err)
		}
		for c := range ta.Cells {
			if math.Float64bits(ta.Cells[c]) != math.Float64bits(tBb.Cells[c]) {
				tb.Fatalf("%s: marginal %b cell %d: %v vs %v", label, beta, c, ta.Cells[c], tBb.Cells[c])
			}
		}
	}
}

// fedSource is a source the equivalence test can feed, snapshot and
// move through time (a no-op for the cumulative sharded pipeline).
type fedSource interface {
	Source
	Snapshot() (core.Aggregator, error)
	ConsumeBatch([]core.Report) error
	tick(t *testing.T)
}

type shardedFed struct{ *core.ShardedAggregator }

func (shardedFed) tick(*testing.T) {}

// ringFed slides a four-bucket window one bucket per tick, so the run
// seals buckets, folds them, and later unmerges the expired ones.
type ringFed struct {
	*window.Ring
	now time.Time
}

func (r *ringFed) tick(t *testing.T) {
	r.now = r.now.Add(r.Bucket())
	if _, _, err := r.Advance(r.now); err != nil {
		t.Fatal(err)
	}
}

func newFedSource(t *testing.T, p core.Protocol, windowed bool) fedSource {
	if !windowed {
		return shardedFed{core.NewSharded(p, 4)}
	}
	start := time.Unix(1_700_000_000, 0)
	ring, err := window.NewRing(p, window.Options{
		Window: 4 * time.Minute, Bucket: time.Minute, Shards: 2, Start: start,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &ringFed{Ring: ring, now: start}
}

// TestIncrementalBuildsMatchColdBuild drives an engine through
// randomized ingest/refresh interleavings for all six protocols, over a
// sharded and a windowed source, at GOMAXPROCS 1 and 8, asserting every
// epoch — first, incremental, zero-delta, after a failed fold — is
// bit-identical to a standalone Build over a Snapshot of the same state:
// a served view is a function of the counters, not of how the engine
// reached them.
func TestIncrementalBuildsMatchColdBuild(t *testing.T) {
	cfg := incCfg()
	for _, kind := range core.AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			for _, procs := range []int{1, 8} {
				for _, windowed := range []bool{false, true} {
					incrementalRunMatchesBuild(t, kind, cfg, procs, windowed)
				}
			}
		})
	}
}

func incrementalRunMatchesBuild(t *testing.T, kind core.Kind, cfg core.Config, procs int, windowed bool) {
	name := fmt.Sprintf("procs=%d/windowed=%v", procs, windowed)
	t.Run(name, func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		p, err := core.New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fed := newFedSource(t, p, windowed)
		src := &failingSource{Source: fed}
		eng, err := NewEngine(src, p, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		matchesBuild := func(v *View) {
			t.Helper()
			snap, err := fed.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Build(snap, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if v.N != cold.N {
				t.Fatalf("epoch %d N=%d, standalone N=%d", v.Epoch, v.N, cold.N)
			}
			assertViewsBitIdentical(t, name, v, cold, cfg)
		}
		first := eng.Current()
		if first.Epoch != 1 || first.Incremental {
			t.Fatalf("first epoch %d incremental=%v", first.Epoch, first.Incremental)
		}
		matchesBuild(first)

		reps := incReports(t, p, 5000, uint64(kind)+77)
		r := rand.New(rand.NewSource(int64(kind) + 99))
		var incrementals, fulls int64 = 0, 1
		for lo, step := 0, 0; lo < len(reps); step++ {
			hi := min(lo+1+r.Intn(700), len(reps))
			if err := fed.ConsumeBatch(reps[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
			if step%2 == 1 {
				fed.tick(t)
			}
			failed := step == 3
			if failed {
				src.fail = true
				if _, err := eng.Refresh(); err == nil {
					t.Fatal("refresh over a failing fold must error")
				}
				src.fail = false
			}
			v, err := eng.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if v.Incremental == failed {
				t.Fatalf("epoch %d incremental=%v after failed fold=%v", v.Epoch, v.Incremental, failed)
			}
			if failed {
				fulls++
			} else {
				incrementals++
			}
			matchesBuild(v)
			again, err := eng.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if again != v {
				t.Fatalf("zero-delta refresh after epoch %d built epoch %d", v.Epoch, again.Epoch)
			}
		}
		if stats := eng.Stats(); stats.IncrementalBuilds != incrementals || stats.FullBuilds != fulls {
			t.Fatalf("stats %+v, want %d incremental and %d full", stats, incrementals, fulls)
		}
	})
}

// TestBuildAfterFailedFoldRecapturesFromScratch: a refresh whose delta
// fold errors keeps the previous epoch serving, and the engine stops
// trusting the state it held — the next epoch is reported non-incremental,
// folds every shard again, and equals a standalone Build bit for bit;
// the one after is incremental again.
func TestBuildAfterFailedFoldRecapturesFromScratch(t *testing.T) {
	cfg := incCfg()
	const shards = 4
	for _, kind := range core.AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := core.New(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sh := core.NewSharded(p, shards)
			src := &failingSource{Source: sh}
			eng, err := NewEngine(src, p, EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			reps := incReports(t, p, 3000, uint64(kind)+13)
			refresh := func(lo int) *View {
				t.Helper()
				// One report moves one shard.
				if err := sh.ConsumeBatch(reps[lo : lo+1]); err != nil {
					t.Fatal(err)
				}
				v, err := eng.Refresh()
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			if err := sh.ConsumeBatch(reps[2:]); err != nil {
				t.Fatal(err)
			}
			prev, err := eng.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if !prev.Incremental {
				t.Fatalf("epoch %d over a primed arena was not incremental", prev.Epoch)
			}

			src.fail = true
			if _, err := eng.Refresh(); err == nil {
				t.Fatal("refresh over a failing fold must error")
			}
			if eng.Current() != prev {
				t.Fatal("failed refresh replaced the serving view")
			}
			src.fail = false

			v := refresh(0)
			if v.Incremental || v.FoldedComponents != shards {
				t.Fatalf("epoch after a failed fold: incremental=%v, folded %d of %d shards", v.Incremental, v.FoldedComponents, shards)
			}
			snap, err := sh.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Build(snap, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertViewsBitIdentical(t, kind.String(), v, cold, cfg)

			if v = refresh(1); !v.Incremental || v.FoldedComponents != 1 {
				t.Fatalf("second epoch after a failed fold: incremental=%v, folded %d shards", v.Incremental, v.FoldedComponents)
			}
			if stats := eng.Stats(); stats.IncrementalBuilds != 2 || stats.FullBuilds != 2 {
				t.Fatalf("stats %+v, want 2 incremental and 2 full", stats)
			}
		})
	}
}

// TestZeroDeltaRefreshRepublishes: a refresh with nothing ingested since
// the serving epoch keeps serving it instead of rebuilding.
func TestZeroDeltaRefreshRepublishes(t *testing.T) {
	cfg := incCfg()
	p, err := core.New(core.InpHT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := core.NewSharded(p, 4)
	eng, err := NewEngine(sh, p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := sh.ConsumeBatch(incReports(t, p, 100, 1)); err != nil {
		t.Fatal(err)
	}
	v2, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if v2.Epoch != 2 {
		t.Fatalf("epoch %d after ingest+refresh, want 2", v2.Epoch)
	}
	v3, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if v3 != v2 {
		t.Fatalf("zero-delta refresh rebuilt epoch %d", v3.Epoch)
	}
}

// TestIncrementalRefreshStress interleaves concurrent batch ingestion
// with engine refreshes — the assertions are the race detector plus the
// final epoch's equivalence with a cold build.
func TestIncrementalRefreshStress(t *testing.T) {
	cfg := incCfg()
	p, err := core.New(core.MargRR, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := core.NewSharded(p, 4)
	eng, err := NewEngine(sh, p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	reps := incReports(t, p, 8000, 3)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := w * 2000; lo < (w+1)*2000; lo += 200 {
				if err := sh.ConsumeBatch(reps[lo : lo+200]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	refDone := make(chan struct{})
	go func() {
		defer close(refDone)
		for i := 0; i < 30; i++ {
			if _, err := eng.Refresh(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-refDone
	if t.Failed() {
		return
	}
	v, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Build(snap, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertViewsBitIdentical(t, "MargRR stress", v, cold, cfg)
}
