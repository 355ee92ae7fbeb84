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
	if err := st.WALErr(); err == nil || !strings.Contains(err.Error(), "lost flush") {
		t.Fatalf("WALErr = %v", err)
	}
	if _, err := st.Rotate(); !errors.Is(err, boom) {
		t.Fatalf("rotate after WAL failure: %v", err)
	}
	if err := st.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close returned %v, want the recorded flush error", err)
	}
}
