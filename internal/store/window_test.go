package store

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/window"
)

var bucketStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// openWindowed opens dir as a windowed node would: a ring of one-minute
// buckets restored from what the dir holds, its live bucket the snapshot
// source.
func openWindowed(t *testing.T, dir string, p core.Protocol, buckets int, opts Options) (*Store, *window.Ring) {
	t.Helper()
	st, err := Open(dir, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := window.NewRing(p, window.Options{Window: time.Duration(buckets) * time.Minute, Bucket: time.Minute, Shards: 2, Start: bucketStart})
	if err != nil {
		t.Fatal(err)
	}
	live, _ := st.Recovered()
	if err := ring.Restore(st.RecoveredLayout(), live); err != nil {
		t.Fatal(err)
	}
	st.SetSource(ring.LiveSnapshot)
	if err := st.SetWindow(ring.Layout); err != nil {
		t.Fatal(err)
	}
	return st, ring
}

// cross advances the ring to minute m of its grid through the store.
func cross(t *testing.T, st *Store, ring *window.Ring, m int) {
	t.Helper()
	err := st.Cross(func() error {
		_, _, err := ring.Advance(bucketStart.Add(time.Duration(m) * time.Minute))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sameRing fails unless got holds want's buckets, slot for slot and
// byte for byte, at the same position and with the same live bucket.
func sameRing(t *testing.T, got, want *window.Ring) {
	t.Helper()
	gl, wl := got.Layout(), want.Layout()
	if gl.LiveSlot != wl.LiveSlot || !gl.LiveStart.Equal(wl.LiveStart) || len(gl.Sealed) != len(wl.Sealed) {
		t.Fatalf("recovered ring at slot %d (%v) with %d buckets, want slot %d (%v) with %d",
			gl.LiveSlot, gl.LiveStart, len(gl.Sealed), wl.LiveSlot, wl.LiveStart, len(wl.Sealed))
	}
	for i, w := range wl.Sealed {
		g := gl.Sealed[i]
		if g.Slot != w.Slot || !bytes.Equal(marshalOf(t, g.Agg), marshalOf(t, w.Agg)) {
			t.Fatalf("bucket %d: slot %d with %d reports, want slot %d with %d", i, g.Slot, g.Agg.N(), w.Slot, w.Agg.N())
		}
	}
	gs, err := got.LiveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.LiveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalOf(t, gs), marshalOf(t, ws)) {
		t.Fatalf("recovered live bucket holds %d reports, want %d", gs.N(), ws.N())
	}
}

func marshalOf(t *testing.T, agg core.Aggregator) []byte {
	t.Helper()
	b, err := agg.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// dirFiles lists the WAL segment indexes and bucket files in dir.
func dirFiles(t *testing.T, dir string) (segs []uint64, bkts map[string]bool) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bkts = make(map[string]bool)
	for _, e := range entries {
		if idx, ok := parseSeqName(e.Name(), "wal-", segSuffix); ok {
			segs = append(segs, idx)
		}
		if _, _, ok := parseBucketName(e.Name()); ok {
			bkts[e.Name()] = true
		}
	}
	return segs, bkts
}

// TestExpiryDeletesOnlyTheExpiredBucket: a bucket sliding out of the
// window deletes exactly its file and its segments and writes no
// snapshot, and recovery sees the buckets that survive.
func TestExpiryDeletesOnlyTheExpiredBucket(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, ring := openWindowed(t, dir, p, 3, Options{Fsync: FsyncAlways})
	reps, frames := makeFrames(t, p, 200, 42)
	ingestAll(t, st, ring, reps[:100], frames[:100])
	cross(t, st, ring, 1)
	ingestAll(t, st, ring, reps[100:], frames[100:])
	cross(t, st, ring, 2)
	_, before := dirFiles(t, dir)
	expired := st.bkts[0]
	snaps := st.ins.snapshots.Value()

	// The third crossing slides the first bucket out; nothing new arrived.
	cross(t, st, ring, 3)
	segs, after := dirFiles(t, dir)
	if st.ins.snapshots.Value() != snaps {
		t.Fatal("expiry wrote a snapshot")
	}
	for name := range before {
		if after[name] == (name == filepath.Base(expired.path)) {
			t.Fatalf("after expiry, %s present = %v (the expired bucket is %s)", name, after[name], filepath.Base(expired.path))
		}
	}
	if segs[0] != expired.covered+1 {
		t.Fatalf("oldest segment %d, want %d: expiry kept a segment of the expired bucket or deleted a live one", segs[0], expired.covered+1)
	}
	st.crash()

	re, ring2 := openWindowed(t, dir, p, 3, Options{})
	defer re.Close()
	sameRing(t, ring2, ring)
	snap, err := ring2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalOf(t, snap), referenceState(t, p, reps[100:])) {
		t.Fatal("recovered window differs from the surviving bucket's reference")
	}
}

// TestCrossingsWithoutRecordsKeepActiveSegment: two crossings with
// nothing appended between them never record the active segment as
// covered (recovery would skip it, and expiry unlink it, while appends
// still go to it), so reports acked after them survive a crash.
func TestCrossingsWithoutRecordsKeepActiveSegment(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, ring := openWindowed(t, dir, p, 10, Options{Fsync: FsyncAlways})
	reps, frames := makeFrames(t, p, 300, 46)
	for i := 0; i < 3; i++ {
		ingestAll(t, st, ring, reps[i*100:(i+1)*100], frames[i*100:(i+1)*100])
		if i == 2 {
			break
		}
		cross(t, st, ring, 2*i+1)
		cross(t, st, ring, 2*i+2)
		segs, _ := dirFiles(t, dir)
		for _, f := range st.bkts {
			if f.covered >= segs[len(segs)-1] {
				t.Fatalf("bucket %d covers segment %d, the active one", f.slot, f.covered)
			}
		}
	}
	st.crash()

	re, ring2 := openWindowed(t, dir, p, 10, Options{})
	defer re.Close()
	sameRing(t, ring2, ring)
	if ring2.N() != len(reps) {
		t.Fatalf("recovered %d reports, %d were acked", ring2.N(), len(reps))
	}
}

// TestCrashBetweenBucketRenameAndCleanup: a crash after a crossing's
// files are renamed into place but before the expired bucket, the
// superseded position file and their segments are deleted recovers the
// same ring, and the reopened store finishes the cleanup.
func TestCrashBetweenBucketRenameAndCleanup(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, ring := openWindowed(t, dir, p, 2, Options{Fsync: FsyncAlways})
	reps, frames := makeFrames(t, p, 300, 47)
	ingestAll(t, st, ring, reps[:100], frames[:100])
	cross(t, st, ring, 1)
	ingestAll(t, st, ring, reps[100:200], frames[100:200])
	before := t.TempDir()
	copyFiles(t, dir, before)
	cross(t, st, ring, 2) // seals the second bucket and expires the first
	ingestAll(t, st, ring, reps[200:], frames[200:])
	st.crash()
	// Every file the crossing deleted is back: the crash hit before the
	// cleanup.
	crashed := t.TempDir()
	copyFiles(t, before, crashed)
	copyFiles(t, dir, crashed)

	re, ring2 := openWindowed(t, crashed, p, 2, Options{})
	defer re.Close()
	sameRing(t, ring2, ring)
	if _, left := dirFiles(t, crashed); len(left) != len(re.bkts) || len(left) != 1 {
		t.Fatalf("reopened store left bucket files %v, want the one sealed bucket", left)
	}
}

// TestSnapshotAndSealCloseSameSegment: a live-bucket snapshot and the
// seal right after it, with no record between them, cover the same
// segment; the bucket file supersedes the snapshot, so recovery counts
// the bucket's reports once.
func TestSnapshotAndSealCloseSameSegment(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, ring := openWindowed(t, dir, p, 3, Options{Fsync: FsyncAlways})
	reps, frames := makeFrames(t, p, 150, 48)
	ingestAll(t, st, ring, reps[:100], frames[:100])
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	cross(t, st, ring, 1)
	if snaps := st.snapsCopy(); st.bkts[len(st.bkts)-1].covered != snaps[len(snaps)-1].covered {
		t.Fatal("snapshot and seal closed different segments")
	}
	ingestAll(t, st, ring, reps[100:], frames[100:])
	st.crash()

	re, ring2 := openWindowed(t, dir, p, 3, Options{})
	defer re.Close()
	sameRing(t, ring2, ring)
	if ring2.N() != len(reps) {
		t.Fatalf("recovered %d reports, %d were acked", ring2.N(), len(reps))
	}
}

// TestCrossUnderConcurrentIngest: a crossing races batches ingested
// from several goroutines. It holds the exclusive barrier, so no batch
// is consumed into one bucket and logged past the segment that closes
// it (recovery would count it twice) or before it (recovery would lose
// it). Each round crosses once mid-ingest and recovers a copy of the dir.
func TestCrossUnderConcurrentIngest(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, ring := openWindowed(t, dir, p, 4, Options{Fsync: FsyncInterval})
	defer st.Close()
	reps, frames := makeFrames(t, p, 600, 49)
	for round := 1; round <= 20; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(lo int) {
				defer wg.Done()
				for i := lo; i < lo+200; i += 2 {
					batch := batchOf(frames[i : i+2])
					if err := st.Ingest(batch, func() (int, int, error) { return 2, len(batch), ring.ConsumeBatch(reps[i : i+2]) }); err != nil {
						t.Error(err)
						return
					}
				}
			}(w * 200)
		}
		cross(t, st, ring, round)
		wg.Wait()
		st.flushWAL()
		image := t.TempDir()
		copyFiles(t, dir, image)
		re, ring2 := openWindowed(t, image, p, 4, Options{Fsync: FsyncOff})
		sameRing(t, ring2, ring)
		re.crash()
	}
}

// copyFiles copies every file of src into dst, replacing same names.
func copyFiles(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptNewestBucketRebuiltFromSegments: a windowed dir whose
// newest bucket file fails validation recovers that bucket from the
// segments the file covers, counts one discarded file, and trusts no
// snapshot for the live bucket. The lost file took the ring's position
// with it, so the grid moves on past the bucket's slot, to where a
// never-faulted twin of the dir stands. From there the two stay equal
// crossing by crossing, and the rebuilt bucket expires, file and
// segments, when the twin's does.
func TestCorruptNewestBucketRebuiltFromSegments(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, ring := openWindowed(t, dir, p, 3, Options{Fsync: FsyncAlways})
	reps, frames := makeFrames(t, p, 300, 50)
	ingestAll(t, st, ring, reps[:100], frames[:100])
	cross(t, st, ring, 1)
	ingestAll(t, st, ring, reps[100:200], frames[100:200])
	cross(t, st, ring, 2)
	ingestAll(t, st, ring, reps[200:250], frames[200:250])
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, st, ring, reps[250:], frames[250:])
	newest := st.bkts[len(st.bkts)-1]
	st.crash()
	if l := ring.Layout(); len(l.Sealed) != 2 || newest.slot != l.Sealed[1].Slot {
		t.Fatalf("newest bucket file is slot %d, want the bucket sealed at minute 2", newest.slot)
	}
	twinDir := t.TempDir()
	copyFiles(t, dir, twinDir)
	buf, err := os.ReadFile(newest.path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(newest.path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	re, got := openWindowed(t, dir, p, 3, Options{Fsync: FsyncAlways})
	defer re.Close()
	twin, want := openWindowed(t, twinDir, p, 3, Options{Fsync: FsyncAlways})
	defer twin.Close()
	if _, rec := re.Recovered(); rec.BucketsRebuilt != 1 || rec.SnapshotsDiscarded != 0 || rec.Reports != len(reps) {
		t.Fatalf("recovery rebuilt %d buckets, discarded %d snapshots and recovered %d reports, want 1, 0 and %d",
			rec.BucketsRebuilt, rec.SnapshotsDiscarded, rec.Reports, len(reps))
	}
	sameRing(t, got, ring)
	sameRing(t, got, want)
	for m := 3; m <= 5; m++ {
		cross(t, re, got, m)
		cross(t, twin, want, m)
		sameRing(t, got, want)
		gotSegs, gotBkts := dirFiles(t, dir)
		wantSegs, wantBkts := dirFiles(t, twinDir)
		if len(gotSegs) != len(wantSegs) || gotSegs[0] != wantSegs[0] || len(gotBkts) != len(wantBkts) {
			t.Fatalf("minute %d: segments %v and bucket files %v, the twin holds %v and %v", m, gotSegs, gotBkts, wantSegs, wantBkts)
		}
		held := false
		for _, b := range got.Layout().Sealed {
			held = held || b.Slot == newest.slot
		}
		if held != (m < 4) || gotBkts[filepath.Base(newest.path)] != held {
			t.Fatalf("minute %d: the rebuilt bucket held %v, its file present %v", m, held, gotBkts[filepath.Base(newest.path)])
		}
	}
}
