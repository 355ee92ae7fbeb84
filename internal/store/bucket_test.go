package store

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ldpmarginals/internal/core"
)

// TestRotateAlignsSegmentsWithBuckets: explicit rotation closes the
// active segment so a windowed deployment's WAL is time-bucketed — one
// sealed segment per bucket boundary, each holding only its bucket's
// reports.
func TestRotateAlignsSegmentsWithBuckets(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reps, frames := makeFrames(t, p, 300, 41)
	agg := core.NewSharded(p, 2)
	st.SetSource(agg.Snapshot)

	var sealed []uint64
	for b := 0; b < 3; b++ {
		ingestAll(t, st, agg, reps[b*100:(b+1)*100], frames[b*100:(b+1)*100])
		seg, err := st.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, seg)
	}
	for i := 1; i < len(sealed); i++ {
		if sealed[i] != sealed[i-1]+1 {
			t.Fatalf("bucket seals closed segments %v, want consecutive", sealed)
		}
	}
	if got := st.Status().Segments; got != 4 {
		t.Fatalf("%d segments after 3 bucket seals, want 3 sealed + 1 active", got)
	}
}

// TestRotateSkipsEmptyActiveSegment: a bucket seal with no ingested
// reports must not rotate — a windowed deployment seals a bucket every
// interval whether or not anything arrived, and rotating header-only
// segments would grow the directory without bound on an idle server
// (nothing expires, so nothing ever prunes them).
func TestRotateSkipsEmptyActiveSegment(t *testing.T) {
	p := testProtocol(t)
	st, err := Open(t.TempDir(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	agg := core.NewSharded(p, 2)
	st.SetSource(agg.Snapshot)

	for i := 0; i < 5; i++ {
		if _, err := st.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Status().Segments; got != 1 {
		t.Fatalf("%d segments after 5 idle bucket seals, want the single active segment", got)
	}

	reps, frames := makeFrames(t, p, 10, 45)
	ingestAll(t, st, agg, reps, frames)
	if _, err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	if got := st.Status().Segments; got != 2 {
		t.Fatalf("%d segments after a non-empty seal, want sealed + active", got)
	}
}

// TestCompactAfterShrinkPrunesBucketSegments drives the windowed
// retention flow: buckets seal (Rotate), the window shrinks as a
// bucket expires, and Compact — unlike Snapshot — re-snapshots the
// shrunken state even though no new reports arrived, which is what
// lets prune drop the expired bucket's segments from disk.
func TestCompactAfterShrinkPrunesBucketSegments(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reps, frames := makeFrames(t, p, 200, 42)
	agg := core.NewSharded(p, 2)
	// The source models a sliding window: it reports whatever state the
	// test says is currently inside the window.
	window := agg
	st.SetSource(func() (core.Aggregator, error) { return window.Snapshot() })

	// Bucket A, sealed.
	ingestAll(t, st, agg, reps[:100], frames[:100])
	if _, err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	// Bucket B, sealed; first snapshot covers both buckets.
	ingestAll(t, st, agg, reps[100:], frames[100:])
	if _, err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	firstSeq := st.Status().SnapshotSeq
	if firstSeq == 0 {
		t.Fatal("no snapshot written")
	}

	// Bucket A expires: the window now holds only bucket B. Snapshot
	// would skip (nothing new since the last one); Compact must not.
	shrunk := core.NewSharded(p, 2)
	if err := shrunk.ConsumeBatch(reps[100:]); err != nil {
		t.Fatal(err)
	}
	window = shrunk
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := st.Status().SnapshotSeq; got != firstSeq {
		t.Fatalf("idle Snapshot advanced the snapshot seq to %d", got)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	after := st.Status()
	if after.SnapshotSeq != firstSeq+1 {
		t.Fatalf("Compact did not write a snapshot: seq %d, want %d", after.SnapshotSeq, firstSeq+1)
	}
	// With two snapshots retained, the buckets covered by the older one
	// are redundant: pruning leaves the fallback tail plus the active
	// segment.
	if after.Segments > 2 {
		t.Fatalf("expired bucket segments not pruned: %d segments", after.Segments)
	}

	// Recovery sees the shrunken window, not the expired bucket.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec, _ := re.Recovered()
	if rec.N() != 100 {
		t.Fatalf("recovered %d reports, want the 100 inside the window", rec.N())
	}
	if !bytes.Equal(recoveredState(t, re), referenceState(t, p, reps[100:])) {
		t.Fatal("recovered window state differs from the surviving bucket's reference")
	}
}

// TestCompactTwiceKeepsActiveSegment: two compactions with no append
// between (a windowed node compacts on every expiry, busy or idle) must
// not record the still-active segment as covered. Recovery skips covered
// segments and prune unlinks them, so reports acked into one would be
// gone after a restart.
func TestCompactTwiceKeepsActiveSegment(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	reps, frames := makeFrames(t, p, 300, 46)
	agg := core.NewSharded(p, 2)
	st.SetSource(agg.Snapshot)

	ingestAll(t, st, agg, reps[:100], frames[:100])
	for i := 0; i < 2; i++ {
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	ingestAll(t, st, agg, reps[100:200], frames[100:200])
	// A third compaction prunes up to what the second one recorded, with
	// the committer appending beside it.
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, st, agg, reps[200:], frames[200:])
	st.crash()

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec, _ := re.Recovered(); rec.N() != len(reps) {
		t.Fatalf("recovered %d reports, %d were acked", rec.N(), len(reps))
	}
	if !bytes.Equal(recoveredState(t, re), referenceState(t, p, reps)) {
		t.Fatal("recovered state differs from the reference")
	}
}

// TestCrashRecoveryAcrossBucketedSegments: a crash (no final snapshot,
// no shutdown bookkeeping) with the WAL spread across bucket-aligned
// segments recovers the full window byte-identically — the durable half
// of the windowed-vs-direct bit-identity contract.
func TestCrashRecoveryAcrossBucketedSegments(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	reps, frames := makeFrames(t, p, 450, 43)
	agg := core.NewSharded(p, 2)
	for b := 0; b < 3; b++ {
		ingestAll(t, st, agg, reps[b*150:(b+1)*150], frames[b*150:(b+1)*150])
		if _, err := st.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	st.crash()

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, stats := re.Recovered(); stats.SegmentsReplayed < 3 {
		t.Fatalf("replayed %d segments, want the 3 bucket segments", stats.SegmentsReplayed)
	}
	if !bytes.Equal(recoveredState(t, re), referenceState(t, p, reps)) {
		t.Fatal("crash recovery across bucketed segments diverges from the reference")
	}
}

// TestWALFailureStickyAcrossIngestAndClose pins the flush-error
// contract: once the committer records a failure, every subsequent
// Ingest fails instead of acking unsynced writes, the status reports
// it, and Close surfaces it rather than returning success.
func TestWALFailureStickyAcrossIngestAndClose(t *testing.T) {
	p := testProtocol(t)
	st, err := Open(t.TempDir(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps, frames := makeFrames(t, p, 10, 44)
	agg := p.NewAggregator()
	ingestAll(t, st, agg, reps, frames)

	boom := errors.New("device error: lost flush")
	st.setWALFailure(boom)

	batch := batchOf(frames[:1])
	err = st.Ingest(batch, func() (int, int, error) { return 1, len(batch), nil })
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("ingest after WAL failure: %v, want the recorded flush error", err)
	}
	if got := st.Status().WALError; !strings.Contains(got, "lost flush") {
		t.Fatalf("status WALError = %q", got)
	}
	if _, err := st.Rotate(); !errors.Is(err, boom) {
		t.Fatalf("rotate after WAL failure: %v", err)
	}
	if err := st.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close returned %v, want the recorded flush error", err)
	}
}
