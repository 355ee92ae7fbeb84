package window

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/rng"
)

func windowTestConfig() core.Config {
	return core.Config{D: 6, K: 2, Epsilon: 1.1, OptimizedPRR: true}
}

func windowReports(tb testing.TB, p core.Protocol, n int, seed uint64) []core.Report {
	tb.Helper()
	client := p.NewClient()
	r := rng.New(seed)
	reps := make([]core.Report, n)
	for i := range reps {
		rep, err := client.Perturb(uint64(i)%(1<<uint(p.Config().D)), r)
		if err != nil {
			tb.Fatal(err)
		}
		reps[i] = rep
	}
	return reps
}

func marshal(tb testing.TB, a core.Aggregator) []byte {
	tb.Helper()
	b, err := a.MarshalState()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

var testStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fold advances arena to the ring's current window, as the view engine
// does, and returns how many parts it folded.
func fold(arena *core.FoldArena, r *Ring) (int, error) { return arena.Sync(r.AppendParts(nil)) }

// TestWindowAllBucketsBitIdentical is the continual-release exactness
// pin for every protocol: a window still covering all of its buckets —
// through rotations, both the Snapshot path and the delta-fold arena
// path — is byte-identical to a single cumulative aggregator fed the
// same reports.
func TestWindowAllBucketsBitIdentical(t *testing.T) {
	for _, kind := range core.AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := core.New(kind, windowTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRing(p, Options{
				Window: 10 * time.Minute,
				Bucket: time.Minute,
				Shards: 3,
				Start:  testStart,
			})
			if err != nil {
				t.Fatal(err)
			}
			arena := core.NewFoldArena(p.NewAggregator)
			direct := p.NewAggregator()
			reps := windowReports(t, p, 1200, uint64(kind)+7)
			now := testStart
			for chunk := 0; chunk < 4; chunk++ {
				part := reps[chunk*300 : (chunk+1)*300]
				if err := r.ConsumeBatch(part); err != nil {
					t.Fatal(err)
				}
				if err := core.ConsumeAll(direct, part); err != nil {
					t.Fatal(err)
				}
				now = now.Add(time.Minute)
				if _, _, err := r.Advance(now); err != nil {
					t.Fatal(err)
				}
				snap, err := r.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(marshal(t, snap), marshal(t, direct)) {
					t.Fatalf("%s: window snapshot diverges from cumulative after chunk %d", kind, chunk)
				}
				if _, err := fold(arena, r); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(marshal(t, arena.State()), marshal(t, direct)) {
					t.Fatalf("%s: arena state diverges from cumulative after chunk %d", kind, chunk)
				}
				if r.N() != direct.N() {
					t.Fatalf("%s: window N %d, cumulative N %d", kind, r.N(), direct.N())
				}
			}
			st := r.Status()
			if st.Expired != 0 || st.SealedBuckets != 4 {
				t.Fatalf("all-buckets window expired state: %+v", st)
			}
		})
	}
}

// TestWindowExpiryRetiresBuckets pins the sliding semantics: once a
// bucket leaves the window, the state equals — byte for byte — a
// cumulative aggregator over only the surviving buckets' reports.
func TestWindowExpiryRetiresBuckets(t *testing.T) {
	p, err := core.New(core.InpHT, windowTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(p, Options{
		Window: 3 * time.Minute,
		Bucket: time.Minute,
		Shards: 2,
		Start:  testStart,
	})
	if err != nil {
		t.Fatal(err)
	}
	chunks := [][]core.Report{
		windowReports(t, p, 200, 61),
		windowReports(t, p, 250, 62),
		windowReports(t, p, 300, 63),
	}
	now := testStart
	for _, c := range chunks {
		if err := r.ConsumeBatch(c); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Minute)
		if _, _, err := r.Advance(now); err != nil {
			t.Fatal(err)
		}
	}
	// Three rotations over a three-bucket window: the first chunk's
	// bucket has slid out.
	want := p.NewAggregator()
	for _, c := range chunks[1:] {
		if err := core.ConsumeAll(want, c); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, snap), marshal(t, want)) {
		t.Fatal("window after expiry diverges from the surviving buckets' cumulative state")
	}
	if r.N() != want.N() {
		t.Fatalf("window N %d, want %d", r.N(), want.N())
	}
	st := r.Status()
	if st.Expired != 1 || st.SealedBuckets != 2 {
		t.Fatalf("status after one expiry: %+v", st)
	}
	// Let the rest of the window turn over with no ingestion: the
	// window drains to empty, equal to a fresh aggregator.
	if _, _, err := r.Advance(testStart.Add(6 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	snap, err = r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, snap), marshal(t, p.NewAggregator())) || r.N() != 0 {
		t.Fatalf("drained window not empty: n=%d", r.N())
	}
	// An Advance that overshoots the whole window resets wholesale.
	if err := r.ConsumeBatch(chunks[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Advance(testStart.Add(30 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if r.N() != 0 {
		t.Fatalf("overshoot advance left n=%d", r.N())
	}
}

// TestWindowDeltaFoldCost pins the window's fold cost model: after the
// arena is primed, retiring a bucket is a constant number of folds —
// one Merge for the newly sealed bucket, one Unmerge per old live shard,
// one Merge per new live shard, one Unmerge for the expired bucket —
// never a rebuild over the whole window, and an idle fold touches
// nothing.
func TestWindowDeltaFoldCost(t *testing.T) {
	const shards = 3
	p, err := core.New(core.MargPS, windowTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(p, Options{
		Window: 2 * time.Minute,
		Bucket: time.Minute,
		Shards: shards,
		Start:  testStart,
	})
	if err != nil {
		t.Fatal(err)
	}
	arena := core.NewFoldArena(p.NewAggregator)
	now := testStart
	for round := 0; round < 6; round++ {
		if err := r.ConsumeBatch(windowReports(t, p, 100, uint64(round)+80)); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Minute)
		if _, _, err := r.Advance(now); err != nil {
			t.Fatal(err)
		}
		touched, err := fold(arena, r)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 + 2*shards + 1; round > 0 && touched != want {
			t.Fatalf("round %d: fold touched %d components, want %d", round, touched, want)
		}
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(t, arena.State()), marshal(t, snap)) {
			t.Fatalf("round %d: arena diverges from Snapshot", round)
		}
	}
	// Idle fold: nothing moved, nothing folded.
	touched, err := fold(arena, r)
	if err != nil {
		t.Fatal(err)
	}
	if touched != 0 {
		t.Fatalf("idle fold touched %d components", touched)
	}
}

// TestWindowLiveBucketFoldsByShard pins the live bucket as its shards: a
// batch refolds only the shard it landed on, and a rotation counts the
// newly sealed bucket, the old live shards dropped, the new live shards
// added and the expired buckets.
func TestWindowLiveBucketFoldsByShard(t *testing.T) {
	const shards = 2
	p, err := core.New(core.InpPS, windowTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(p, Options{Window: 2 * time.Minute, Bucket: time.Minute, Shards: shards, Start: testStart})
	if err != nil {
		t.Fatal(err)
	}
	arena := core.NewFoldArena(p.NewAggregator)
	capture := func(want int) {
		t.Helper()
		touched, err := fold(arena, r)
		if err != nil {
			t.Fatal(err)
		}
		if touched != want {
			t.Fatalf("fold touched %d components, want %d", touched, want)
		}
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(t, arena.State()), marshal(t, snap)) {
			t.Fatal("arena diverges from Snapshot")
		}
	}
	if err := r.ConsumeBatch(windowReports(t, p, 50, 61)); err != nil {
		t.Fatal(err)
	}
	capture(shards) // cold: every live shard
	if err := r.ConsumeBatch(windowReports(t, p, 50, 63)); err != nil {
		t.Fatal(err)
	}
	capture(1) // the one shard the batch landed on
	if _, _, err := r.Advance(testStart.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := r.ConsumeBatch(windowReports(t, p, 50, 62)); err != nil {
		t.Fatal(err)
	}
	capture(1 + 2*shards)
	if _, _, err := r.Advance(testStart.Add(2 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	// The second bucket seals, the first slides out of the two-bucket
	// window, and the live shards are replaced.
	capture(1 + 2*shards + 1)
	capture(0)
}

// TestRingVersionAdvances pins the label /state exports carry, on the
// cumulative ring and on a windowed one: every state change advances it
// — Consume, ConsumeBatch, Restore, an Advance that crosses a boundary —
// and reads, a rejected batch, an empty batch and an Advance that
// crosses nothing do not.
func TestRingVersionAdvances(t *testing.T) {
	p, err := core.New(core.InpHT, windowTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	reps := windowReports(t, p, 3, 41)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"cumulative", Options{Shards: 2, Start: testStart}},
		{"windowed", Options{Window: 2 * time.Minute, Bucket: time.Minute, Shards: 2, Start: testStart}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRing(p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			step := func(what string, moves bool, op func() error) {
				t.Helper()
				before := r.Version()
				if err := op(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if moved := r.Version() != before; moved != moves {
					t.Fatalf("%s moved the version: %v, want %v", what, moved, moves)
				}
			}
			step("a one-report batch", true, func() error { return r.ConsumeBatch(reps[:1]) })
			step("ConsumeBatch", true, func() error { return r.ConsumeBatch(reps[1:]) })
			step("an empty batch", false, func() error { return r.ConsumeBatch(nil) })
			step("a rejected batch", false, func() error {
				if r.ConsumeBatch([]core.Report{{}}) == nil {
					return errors.New("an invalid report was accepted")
				}
				return nil
			})
			step("reads", false, func() error {
				_ = r.N()
				_ = r.AppendParts(nil)
				_ = r.Status()
				if _, err := r.Snapshot(); err != nil {
					return err
				}
				_, err := r.LiveSnapshot()
				return err
			})
			step("an Advance inside the bucket", false, func() error {
				_, _, err := r.Advance(testStart.Add(time.Second))
				return err
			})
			step("an Advance a minute on", tc.opts.Window > 0, func() error {
				_, _, err := r.Advance(testStart.Add(time.Minute))
				return err
			})
			step("Restore", true, func() error { return r.Restore(Layout{}, nil) })
		})
	}
}

// TestCumulativeRingMatchesSharded pins the cumulative release as the
// ring that never seals: fed the same batches, it is byte-identical to a
// ShardedAggregator of the same width through Snapshot and through the
// fold, which refolds only the shards that moved, and Advance does
// nothing however far the clock moves.
func TestCumulativeRingMatchesSharded(t *testing.T) {
	const shards = 3
	p, err := core.New(core.InpPS, windowTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(p, Options{Shards: shards, Start: testStart})
	if err != nil {
		t.Fatal(err)
	}
	agg := core.NewSharded(p, shards)
	arena := core.NewFoldArena(p.NewAggregator)
	reps := windowReports(t, p, 600, 29)
	for i := 0; i < 6; i++ {
		batch := reps[i*100 : (i+1)*100]
		if err := r.ConsumeBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := agg.ConsumeBatch(batch); err != nil {
			t.Fatal(err)
		}
		if rotated, expired, err := r.Advance(testStart.Add(time.Duration(i+1) * time.Hour)); rotated != 0 || expired != 0 || err != nil {
			t.Fatalf("Advance on the cumulative ring: rotated %d, expired %d, err %v", rotated, expired, err)
		}
		touched, err := fold(arena, r)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 // the shard the batch landed on
		if i == 0 {
			want = shards // cold: every shard
		}
		if touched != want {
			t.Fatalf("batch %d: fold touched %d parts, want %d", i, touched, want)
		}
		ref, err := agg.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(t, snap), marshal(t, ref)) || !bytes.Equal(marshal(t, arena.State()), marshal(t, ref)) || r.N() != agg.N() {
			t.Fatalf("batch %d: cumulative ring diverges from the sharded aggregator", i)
		}
	}
	if st := r.Status(); st.SealedBuckets != 0 || st.Rotations != 0 || st.LiveN != len(reps) {
		t.Fatalf("cumulative ring status %+v, want every report live", st)
	}
	// A windowed node's dir cannot be reopened cumulative: its sealed
	// buckets would silently drop out of the release.
	sealed := &Bucket{Slot: 1, Agg: p.NewAggregator()}
	for _, l := range []Layout{{Sealed: []*Bucket{sealed}}, {LiveSlot: 2, LiveStart: testStart}} {
		if err := r.Restore(l, nil); err == nil || !strings.Contains(err.Error(), "-window") {
			t.Fatalf("cumulative ring restored a windowed layout %+v: %v", l, err)
		}
	}
}

// TestWindowArenaSurfacesFoldErrors pins satellite behavior across the
// layers: a fold that would produce garbage (here, an expiry unmerge
// against tampered arena state) errors out via the Unmerge underflow
// guard, un-primes the arena instead of publishing negative counters,
// and the next fold recaptures cold and correct.
func TestWindowArenaSurfacesFoldErrors(t *testing.T) {
	p, err := core.New(core.InpPS, windowTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(p, Options{
		Window: 2 * time.Minute,
		Bucket: time.Minute,
		Start:  testStart,
	})
	if err != nil {
		t.Fatal(err)
	}
	reps := windowReports(t, p, 150, 91)
	if err := r.ConsumeBatch(reps); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Advance(testStart.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	arena := core.NewFoldArena(p.NewAggregator)
	if _, err := fold(arena, r); err != nil {
		t.Fatal(err)
	}
	// Tamper: drain the arena's cumulative state behind its back, so
	// the held bucket's eventual expiry unmerge has nothing to
	// subtract from.
	drained := p.NewAggregator()
	if err := core.ConsumeAll(drained, reps); err != nil {
		t.Fatal(err)
	}
	if err := core.UnmergeAggregators(arena.State(), drained); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Advance(testStart.Add(3 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := fold(arena, r); err == nil {
		t.Fatal("fold over tampered arena state succeeded")
	}
	if arena.Primed() {
		t.Fatal("arena still primed after a failed fold")
	}
	if _, err := fold(arena, r); err != nil {
		t.Fatalf("cold recapture after failed fold: %v", err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, arena.State()), marshal(t, snap)) {
		t.Fatal("cold recapture diverges from Snapshot")
	}
}

// TestWindowRestoreMatchesTwin: a ring restored from another ring's
// layout and live bucket serves what its never-restarted twin serves
// across later Advance calls — seals, expiries and a gap longer than the
// window — and a layout with no position restores everything as live.
func TestWindowRestoreMatchesTwin(t *testing.T) {
	p, err := core.New(core.MargHT, windowTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Window: 3 * time.Minute, Bucket: time.Minute, Start: testStart}
	twin, err := NewRing(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	reps := windowReports(t, p, 700, 71)
	feed := func(r *Ring, i int) {
		if err := r.ConsumeBatch(reps[i*100 : (i+1)*100]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		feed(twin, i)
		if _, _, err := twin.Advance(testStart.Add(time.Duration(i+1) * time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	feed(twin, 3)
	live, err := twin.LiveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The restored ring starts on another anchor; the layout moves it.
	restored, err := NewRing(p, Options{Window: opts.Window, Bucket: opts.Bucket, Start: testStart.Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(twin.Layout(), live); err != nil {
		t.Fatal(err)
	}
	same := func(step string) {
		t.Helper()
		a, err := twin.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		ts, rs := twin.Status(), restored.Status()
		if !bytes.Equal(marshal(t, a), marshal(t, b)) || ts.SealedBuckets != rs.SealedBuckets || ts.SealedN != rs.SealedN || ts.LiveN != rs.LiveN {
			t.Fatalf("%s: restored ring %+v differs from its twin %+v", step, rs, ts)
		}
	}
	same("restore")
	for i, at := range []time.Duration{4 * time.Minute, 5*time.Minute + 30*time.Second, 6 * time.Minute, 20 * time.Minute} {
		for _, r := range []*Ring{twin, restored} {
			feed(r, 4+i%3)
			if _, _, err := r.Advance(testStart.Add(at)); err != nil {
				t.Fatal(err)
			}
		}
		same(at.String())
	}

	// No position: the recovered state is the live bucket, on the ring's
	// own anchor.
	upgraded, err := NewRing(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := upgraded.Restore(Layout{}, live); err != nil {
		t.Fatal(err)
	}
	if st := upgraded.Status(); st.LiveN != live.N() || st.SealedBuckets != 0 {
		t.Fatalf("position-less restore: %+v, want %d live reports", st, live.N())
	}
}

// noDeltaAgg hides Unmerge and CopyStateFrom from a protocol
// aggregator; noDeltaProto builds such aggregators.
type noDeltaAgg struct{ core.Aggregator }

type noDeltaProto struct{ core.Protocol }

func (p noDeltaProto) NewAggregator() core.Aggregator {
	return noDeltaAgg{p.Protocol.NewAggregator()}
}

// TestWindowRejectsNonDeltaProtocol: expiry is an Unmerge, so a
// protocol whose aggregators are not core.Folders cannot be windowed.
func TestWindowRejectsNonDeltaProtocol(t *testing.T) {
	p, err := core.New(core.MargRR, windowTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRing(noDeltaProto{p}, Options{Window: time.Minute, Bucket: time.Minute}); err == nil {
		t.Fatal("ring accepted a protocol without unmerge support")
	}
	// Config validation.
	if _, err := NewRing(p, Options{Window: time.Minute, Bucket: 0}); err == nil {
		t.Fatal("zero bucket accepted")
	}
	if _, err := NewRing(p, Options{Window: 90 * time.Second, Bucket: time.Minute}); err == nil {
		t.Fatal("window not a multiple of bucket accepted")
	}
}

// TestWindowConcurrentRotation hammers concurrent batch ingestion,
// rotation, snapshots, and delta folds; the assertions are in the race
// detector plus an exactness check after the writers quiesce.
func TestWindowConcurrentRotation(t *testing.T) {
	p, err := core.New(core.InpHT, windowTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(p, Options{
		Window: 4 * time.Minute,
		Bucket: time.Minute,
		Shards: 4,
		Start:  testStart,
	})
	if err != nil {
		t.Fatal(err)
	}
	reps := windowReports(t, p, 6000, 17)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := w * 2000; lo < (w+1)*2000; lo += 200 {
				if err := r.ConsumeBatch(reps[lo : lo+200]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		now := testStart
		for i := 0; i < 40; i++ {
			now = now.Add(20 * time.Second)
			if _, _, err := r.Advance(now); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		arena := core.NewFoldArena(p.NewAggregator)
		for i := 0; i < 30; i++ {
			if _, err := fold(arena, r); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := r.Snapshot(); err != nil {
				t.Error(err)
				return
			}
			_ = r.N()
			_ = r.Status()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	// Quiesced: the arena fold and the full snapshot must agree.
	arena := core.NewFoldArena(p.NewAggregator)
	if _, err := fold(arena, r); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, arena.State()), marshal(t, snap)) {
		t.Fatal("arena diverged from Snapshot after concurrent rotation")
	}
}
