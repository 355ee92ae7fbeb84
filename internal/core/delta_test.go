package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ldpmarginals/internal/rng"
)

// deltaTestConfig keeps the delta tests fast while exercising every
// protocol's counter layout.
func deltaTestConfig() Config {
	return Config{D: 6, K: 2, Epsilon: 1.1, OptimizedPRR: true}
}

func deltaReports(tb testing.TB, p Protocol, n int, seed uint64) []Report {
	tb.Helper()
	client := p.NewClient()
	r := rng.New(seed)
	reps := make([]Report, n)
	for i := range reps {
		rep, err := client.Perturb(uint64(i)%(1<<uint(p.Config().D)), r)
		if err != nil {
			tb.Fatal(err)
		}
		reps[i] = rep
	}
	return reps
}

// TestSnapshotDeltaMatchesSnapshot interleaves randomized ingestion with
// delta folds across all six protocols and checks, after every fold,
// that the arena's cumulative state is byte-identical to a fresh full
// Snapshot — the central exactness claim of the delta path.
func TestSnapshotDeltaMatchesSnapshot(t *testing.T) {
	for _, kind := range AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := New(kind, deltaTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			sh := NewSharded(p, 4)
			arena := sh.NewSnapshotArena()
			if arena == nil {
				t.Fatalf("%s: no snapshot arena for a core protocol", kind)
			}
			reps := deltaReports(t, p, 4000, uint64(kind)+11)
			r := rand.New(rand.NewSource(int64(kind) + 5))
			lo := 0
			folds := 0
			for lo < len(reps) {
				hi := lo + 1 + r.Intn(400)
				if hi > len(reps) {
					hi = len(reps)
				}
				if err := sh.ConsumeBatch(reps[lo:hi]); err != nil {
					t.Fatal(err)
				}
				lo = hi
				if r.Intn(3) == 0 || lo == len(reps) {
					touched, err := sh.SnapshotDeltaInto(arena)
					if err != nil {
						t.Fatal(err)
					}
					folds++
					if folds > 1 && touched > 4 {
						t.Fatalf("fold touched %d shards of 4", touched)
					}
					wantAgg, err := sh.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					want, err := wantAgg.MarshalState()
					if err != nil {
						t.Fatal(err)
					}
					got, err := arena.State().MarshalState()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: after fold %d the arena state diverges from Snapshot", kind, folds)
					}
					if arena.State().N() != sh.N() {
						t.Fatalf("arena N %d, want %d", arena.State().N(), sh.N())
					}
				}
			}
			// A fold with no ingestion in between touches nothing.
			touched, err := sh.SnapshotDeltaInto(arena)
			if err != nil {
				t.Fatal(err)
			}
			if touched != 0 {
				t.Fatalf("idle fold touched %d shards", touched)
			}
			// Reset forces a cold recapture that still matches Snapshot.
			arena.Reset()
			if arena.Primed() {
				t.Fatal("arena primed after Reset")
			}
			if touched, err = sh.SnapshotDeltaInto(arena); err != nil || touched != 4 {
				t.Fatalf("cold recapture touched %d (%v), want 4", touched, err)
			}
			wantAgg, err := sh.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, _ := wantAgg.MarshalState()
			got, _ := arena.State().MarshalState()
			if !bytes.Equal(got, want) {
				t.Fatal("cold recapture diverges from Snapshot")
			}
		})
	}
}

// noDeltaAgg wraps a protocol aggregator, hiding the Unmerge and
// CopyStateFrom methods: it is not a Folder, but its counters still merge.
type noDeltaAgg struct{ Aggregator }

func (a noDeltaAgg) Counters() *CounterBlock {
	return a.Aggregator.(interface{ Counters() *CounterBlock }).Counters()
}

// TestArenaOwnership: an arena belongs to no aggregator. Folded against
// a and then b, it drops a's shards, adds b's, and holds b's state. It
// does need a Folder to fold into: over any other empty aggregator Sync
// fails.
func TestArenaOwnership(t *testing.T) {
	p, err := New(InpHT, deltaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewSharded(p, 2), NewSharded(p, 2)
	reps := deltaReports(t, p, 400, 12)
	for i := 0; i < 4; i++ {
		sh := a
		if i%2 == 1 {
			sh = b
		}
		if err := sh.ConsumeBatch(reps[i*100 : (i+1)*100]); err != nil {
			t.Fatal(err)
		}
	}
	arena := a.NewSnapshotArena()
	if _, err := a.SnapshotDeltaInto(arena); err != nil {
		t.Fatal(err)
	}
	touched, err := b.SnapshotDeltaInto(arena)
	if err != nil || touched != 4 {
		t.Fatalf("refold onto another aggregator folded %d parts (%v), want 2 dropped and 2 added", touched, err)
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := snap.MarshalState()
	got, _ := arena.State().MarshalState()
	if !bytes.Equal(got, want) {
		t.Fatal("arena folded against a then b differs from b.Snapshot")
	}
	unfoldable := NewFoldArena(func() Aggregator { return noDeltaAgg{p.NewAggregator()} })
	if _, err := unfoldable.Sync(b.AppendParts(nil)); err == nil || unfoldable.Primed() {
		t.Fatalf("an arena over an aggregator that cannot unmerge synced (%v)", err)
	}
}

// failingCopy is a protocol aggregator whose CopyStateFrom fails while
// fail is set.
type failingCopy struct {
	Aggregator
	fail *bool
}

func (a failingCopy) Counters() *CounterBlock { return noDeltaAgg{a.Aggregator}.Counters() }

func (a failingCopy) KWayTablesInto(k *KWayArena) error {
	return a.Aggregator.(Folder).KWayTablesInto(k)
}

func (a failingCopy) Unmerge(other Aggregator) error {
	return a.Aggregator.(Folder).Unmerge(other)
}

func (a failingCopy) CopyStateFrom(other Aggregator) error {
	if *a.fail {
		return errors.New("copy refused")
	}
	return a.Aggregator.(Folder).CopyStateFrom(other)
}

// failingCopyProtocol builds failingCopy aggregators sharing one switch.
type failingCopyProtocol struct {
	Protocol
	fail *bool
}

func (p failingCopyProtocol) NewAggregator() Aggregator {
	return failingCopy{p.Protocol.NewAggregator(), p.fail}
}

// TestShardPartsRecaptureAfterFailedCopy pins the prev contract of the
// shard parts: a primed capture copies a moved shard into the copy it
// held, and when that copy fails the arena is unprimed, and the next
// capture is cold — fresh copies of every shard — and byte-equal to
// Snapshot.
func TestShardPartsRecaptureAfterFailedCopy(t *testing.T) {
	p, err := New(MargPS, deltaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	fail := false
	sh := NewSharded(failingCopyProtocol{p, &fail}, 3)
	reps := deltaReports(t, p, 400, 44)
	for i := 0; i < 3; i++ {
		if err := sh.ConsumeBatch(reps[i*100 : (i+1)*100]); err != nil {
			t.Fatal(err)
		}
	}
	arena := NewFoldArena(p.NewAggregator)
	if _, err := arena.Sync(sh.AppendParts(nil)); err != nil || !arena.Primed() {
		t.Fatalf("first capture: %v, primed %v", err, arena.Primed())
	}
	if err := sh.ConsumeBatch(reps[300:]); err != nil {
		t.Fatal(err)
	}
	fail = true
	if _, err := arena.Sync(sh.AppendParts(nil)); err == nil {
		t.Fatal("a capture whose shard copy failed succeeded")
	}
	if arena.Primed() {
		t.Fatal("arena still primed after a failed copy")
	}
	// The cold capture copies nothing into held state, so it succeeds
	// even while copies still fail.
	if touched, err := arena.Sync(sh.AppendParts(nil)); err != nil || touched != 3 || !arena.Primed() {
		t.Fatalf("capture after the failure folded %d parts (%v), want a cold capture of 3", touched, err)
	}
	snap, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := snap.MarshalState()
	got, _ := arena.State().MarshalState()
	if !bytes.Equal(got, want) {
		t.Fatal("cold recapture after a failed copy differs from Snapshot")
	}
}

// TestPrimedCaptureReusesCopies pins what makes one arena cost-neutral:
// a primed capture after one shard moved copies the shard into the copy
// it refolds, so it allocates a small fraction of one state, never a
// fresh copy per fold.
func TestPrimedCaptureReusesCopies(t *testing.T) {
	const d = 12
	const state = 8 << d // one InpPS state: 2^d eight-byte cells
	p, err := New(InpPS, Config{D: d, K: 2, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	sh := NewSharded(p, 4)
	reps := deltaReports(t, p, 4096, 46)
	if err := sh.ConsumeBatch(reps); err != nil {
		t.Fatal(err)
	}
	arena := NewFoldArena(p.NewAggregator)
	var parts []Part
	capture := func(tb testing.TB, want int) {
		parts = sh.AppendParts(parts[:0])
		if touched, err := arena.Sync(parts); err != nil || touched != want {
			tb.Fatalf("capture folded %d parts (%v), want %d", touched, err, want)
		}
	}
	capture(t, 4)
	// The one-report batch allocates nothing, so it stays in the timed
	// loop: stopping the timer around it would triple the test's time.
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sh.ConsumeBatch(reps[i%len(reps) : i%len(reps)+1]); err != nil {
				b.Fatal(err)
			}
			capture(b, 1)
		}
	})
	t.Logf("primed capture after one shard moved: %d B/op, %d allocs/op", res.AllocedBytesPerOp(), res.AllocsPerOp())
	if got := res.AllocedBytesPerOp(); got >= state/16 {
		t.Fatalf("a primed capture of one moved shard allocates %d B, want < %d (1/16 of one state)", got, state/16)
	}
}

// TestUnmergeInvertsMerge checks the exact-inverse contract on every
// protocol: merge then unmerge restores the original counters bit for
// bit.
func TestUnmergeInvertsMerge(t *testing.T) {
	for _, kind := range AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := New(kind, deltaTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			base := p.NewAggregator()
			if err := base.ConsumeBatch(deltaReports(t, p, 700, 21)); err != nil {
				t.Fatal(err)
			}
			extra := p.NewAggregator()
			if err := extra.ConsumeBatch(deltaReports(t, p, 300, 22)); err != nil {
				t.Fatal(err)
			}
			want, err := base.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if err := base.Merge(extra); err != nil {
				t.Fatal(err)
			}
			if err := UnmergeAggregators(base, extra); err != nil {
				t.Fatal(err)
			}
			got, err := base.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: merge+unmerge is not the identity", kind)
			}
		})
	}
}

// TestUnmergeRejectsNeverMerged pins the guard on every protocol:
// unmerging state that was never merged into the receiver is an error —
// whether a counter would wrap or the remainder merely breaks the
// protocol's invariant — and leaves the receiver bit-identical to before
// the call.
func TestUnmergeRejectsNeverMerged(t *testing.T) {
	for _, kind := range AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := New(kind, deltaTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			// The foreign state concentrates one report's contribution 399
			// times on a single counter, so no 400-report receiver built
			// from spread-out reports can contain it: the guard must fire
			// on a counter even though n alone would pass.
			one := deltaReports(t, p, 1, 51)
			repeated := make([]Report, 399)
			for i := range repeated {
				repeated[i] = one[0]
			}
			foreign := p.NewAggregator()
			if err := foreign.ConsumeBatch(repeated); err != nil {
				t.Fatal(err)
			}
			// An empty receiver cannot contain any contribution.
			empty := p.NewAggregator()
			emptyBefore, err := empty.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if err := UnmergeAggregators(empty, foreign); err == nil {
				t.Fatal("unmerging from an empty aggregator succeeded")
			}
			if got, _ := empty.MarshalState(); !bytes.Equal(got, emptyBefore) {
				t.Fatal("failed unmerge mutated the empty receiver")
			}
			// A populated receiver holding different reports: the foreign
			// counters exceed the receiver's somewhere (fixed seeds make
			// this deterministic), so the guard must fire before any
			// counter is touched.
			base := p.NewAggregator()
			if err := base.ConsumeBatch(deltaReports(t, p, 400, 52)); err != nil {
				t.Fatal(err)
			}
			before, err := base.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if err := UnmergeAggregators(base, foreign); err == nil {
				t.Fatalf("%s: unmerging never-merged state succeeded", kind)
			}
			if got, _ := base.MarshalState(); !bytes.Equal(got, before) {
				t.Fatalf("%s: failed unmerge mutated the receiver", kind)
			}
			// The receiver is still fully functional: the legitimate
			// merge+unmerge round trip remains the exact identity.
			if err := base.Merge(foreign); err != nil {
				t.Fatal(err)
			}
			if err := UnmergeAggregators(base, foreign); err != nil {
				t.Fatalf("%s: legitimate unmerge after rejection: %v", kind, err)
			}
			if got, _ := base.MarshalState(); !bytes.Equal(got, before) {
				t.Fatalf("%s: merge+unmerge after rejection is not the identity", kind)
			}
		})
	}
	// No counter underflows here, and no per-counter comparison of the two
	// states objects; it is what would be left that no reports produce: a
	// cell set by 5 reports when only 2 remain. MarshalState would write
	// that state and UnmarshalState refuse it, so Unmerge must too.
	for _, kind := range []Kind{InpRR, MargRR} {
		t.Run(kind.String()+"/remainder", func(t *testing.T) {
			p, err := New(kind, deltaTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			set := deltaReports(t, p, 1, 53)[0]
			set.Bits = []uint64{1}
			clear := set
			clear.Bits = []uint64{0}
			base, foreign := p.NewAggregator(), p.NewAggregator()
			if err := base.ConsumeBatch([]Report{set, set, set, set, set}); err != nil {
				t.Fatal(err)
			}
			if err := foreign.ConsumeBatch([]Report{clear, clear, clear}); err != nil {
				t.Fatal(err)
			}
			before, err := base.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if err := UnmergeAggregators(base, foreign); err == nil {
				t.Fatalf("%s: unmerge left a cell of 5 over 2 reports", kind)
			}
			if got, _ := base.MarshalState(); !bytes.Equal(got, before) {
				t.Fatalf("%s: failed unmerge mutated the receiver", kind)
			}
		})
	}
}

// TestSnapshotDeltaRaceClean hammers concurrent batch writers against a
// folding reader; the assertions are in the race detector plus a final
// exactness check once the writers quiesce.
func TestSnapshotDeltaRaceClean(t *testing.T) {
	p, err := New(MargHT, deltaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	sh := NewSharded(p, 4)
	arena := sh.NewSnapshotArena()
	reps := deltaReports(t, p, 8000, 9)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := w * 2000; lo < (w+1)*2000; lo += 250 {
				if err := sh.ConsumeBatch(reps[lo : lo+250]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := sh.SnapshotDeltaInto(arena); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if t.Failed() {
		return
	}
	if _, err := sh.SnapshotDeltaInto(arena); err != nil {
		t.Fatal(err)
	}
	snap, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := snap.MarshalState()
	got, _ := arena.State().MarshalState()
	if !bytes.Equal(got, want) {
		t.Fatal("arena state diverged after concurrent ingestion")
	}
}

// TestLinearReconstructionMatchesEstimate holds the input-view
// protocols' single-transform k-way reconstruction against the per-table
// scan (agg.Estimate, mask by mask): within 1e-11 total variation per
// table — the two differ only in floating-point summation order — and
// equal Users. d=16, k=3 is the shape the view-wide and fleet-pull
// benchmark workloads serve, fed like them with n well above 2^d: with
// n far below it (and likewise one report at d=16) the unbiased cells
// are thousands in magnitude and the scan's own accumulated rounding,
// not the transform's, passes 1e-11. The one-report aggregators are the
// smallest non-empty state.
func TestLinearReconstructionMatchesEstimate(t *testing.T) {
	for _, kind := range []Kind{InpRR, InpPS} {
		for _, tc := range []struct{ d, n int }{{6, 3000}, {10, 3000}, {16, 1 << 18}, {6, 1}, {10, 1}} {
			cfg := Config{D: tc.d, K: 3, Epsilon: 1.1, OptimizedPRR: true}
			p, err := New(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			agg := p.NewAggregator()
			if sim, ok := agg.(BatchSimulator); ok && tc.n > 1 {
				// InpRR reports are 2^d bits each; sample the aggregate.
				records := make([]uint64, tc.n)
				for i := range records {
					records[i] = uint64(i*2654435761) % (1 << uint(tc.d))
				}
				err = sim.SimulateBatch(records, rng.New(uint64(tc.d)))
			} else {
				err = agg.ConsumeBatch(deltaReports(t, p, tc.n, uint64(tc.d)))
			}
			if err != nil {
				t.Fatal(err)
			}
			arena, err := NewKWayArena(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := AllKWayTablesInto(agg, arena, true); err != nil {
				t.Fatal(err)
			}
			for i, beta := range arena.Masks {
				scan, err := agg.Estimate(beta)
				if err != nil {
					t.Fatal(err)
				}
				var tv float64
				for c := range scan.Cells {
					tv += math.Abs(scan.Cells[c] - arena.Tables[i].Cells[c])
				}
				tv /= 2
				if tv > 1e-11 {
					t.Fatalf("%s d=%d n=%d: table %b transform-vs-scan TV %g", kind, tc.d, tc.n, beta, tv)
				}
				if arena.Users[i] != agg.N() {
					t.Fatalf("%s d=%d n=%d: table %b users %d, want N=%d", kind, tc.d, tc.n, beta, arena.Users[i], agg.N())
				}
			}
		}
	}
}
