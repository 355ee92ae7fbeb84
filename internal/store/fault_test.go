package store

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/fault"
)

// sourceOf adapts a plain aggregator to the snapshot-source contract.
func sourceOf(agg core.Aggregator) func() (core.Aggregator, error) {
	return func() (core.Aggregator, error) { return agg, nil }
}

// ingestExpectErr drives one chunk and returns Ingest's error; the
// apply still consumes into agg first, mirroring the server path.
func ingestChunkErr(st *Store, agg core.Aggregator, reps []core.Report, batch []byte) error {
	return st.Ingest(batch, func() (int, int, error) {
		if err := agg.ConsumeBatch(reps); err != nil {
			return 0, 0, err
		}
		return len(reps), len(batch), nil
	})
}

func TestWALFailureRecoverRestoresDurability(t *testing.T) {
	defer fault.Disarm()
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	st.SetSource(sourceOf(agg))

	reps, frames := makeFrames(t, p, 120, 1)
	ingestAll(t, st, agg, reps[:40], frames[:40])

	// ENOSPC-style persistent append failure: the next ingest consumes
	// into memory but cannot log, and every ingest after that fails
	// fast on the sticky error.
	fault.Arm(fault.Rule{Site: FaultWALAppend, Mode: fault.ModeError, Msg: "no space left on device"})
	if err := ingestChunkErr(st, agg, reps[40:80], batchOf(frames[40:80])); err == nil {
		t.Fatal("ingest with dead WAL succeeded")
	}
	if st.WALErr() == nil {
		t.Fatal("WALErr not sticky after injected append failure")
	}
	if err := ingestChunkErr(st, agg, nil, nil); err == nil {
		t.Fatal("ingest after sticky failure succeeded")
	}

	// Disk "recovers": Recover revives the committer and force-snapshots
	// the memory-only reports back to durability.
	fault.Disarm()
	if err := st.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st.WALErr() != nil {
		t.Fatalf("WALErr after Recover: %v", st.WALErr())
	}
	ingestAll(t, st, agg, reps[80:], frames[80:])
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Everything consumed — healthy prefix, failure-window chunk, and
	// post-recovery tail — must be recovered bit-identically.
	if got, want := recoveredState(t, re), referenceState(t, p, reps); string(got) != string(want) {
		t.Fatal("recovered state differs from reference after WAL failure + Recover")
	}
}

func TestRecoverIsNoOpWhenHealthy(t *testing.T) {
	p := testProtocol(t)
	st, err := Open(t.TempDir(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Recover(); err != nil {
		t.Fatalf("Recover on healthy store: %v", err)
	}
}

func TestRecoverRepairsTornTail(t *testing.T) {
	defer fault.Disarm()
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	st.SetSource(sourceOf(agg))

	reps, frames := makeFrames(t, p, 90, 2)
	ingestAll(t, st, agg, reps[:30], frames[:30])

	// The write lands but its fsync fails: the committer dies with
	// valid records already in the segment.
	fault.Arm(fault.Rule{Site: FaultWALFsync, Mode: fault.ModeError, Times: 1, Msg: "I/O error"})
	if err := ingestChunkErr(st, agg, reps[30:60], batchOf(frames[30:60])); err == nil {
		t.Fatal("ingest with failing fsync succeeded")
	}
	fault.Disarm()

	// Simulate the torn tail a partial write leaves: raw garbage after
	// the last complete record of the failed segment.
	seg := newestSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x17, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := st.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ingestAll(t, st, agg, reps[60:], frames[60:])
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := recoveredState(t, re), referenceState(t, p, reps); string(got) != string(want) {
		t.Fatal("recovered state differs from reference after torn-tail repair")
	}
}

func TestRecoverFailsWhileDiskStillBad(t *testing.T) {
	defer fault.Disarm()
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	agg := p.NewAggregator()
	st.SetSource(sourceOf(agg))
	reps, frames := makeFrames(t, p, 40, 3)

	fault.Arm(
		fault.Rule{Site: FaultWALAppend, Mode: fault.ModeError, Times: 1},
		fault.Rule{Site: FaultWALRotate, Mode: fault.ModeError},
	)
	if err := ingestChunkErr(st, agg, reps[:20], batchOf(frames[:20])); err == nil {
		t.Fatal("ingest with dead WAL succeeded")
	}
	// The disk is still bad: the revive's fresh segment cannot be
	// created, so Recover fails and the store stays failed.
	if err := st.Recover(); err == nil {
		t.Fatal("Recover succeeded while segment creation still fails")
	}
	if st.WALErr() == nil {
		t.Fatal("store reported healthy after failed Recover")
	}
	fault.Disarm()
	if err := st.Recover(); err != nil {
		t.Fatalf("Recover after disarm: %v", err)
	}
	ingestAll(t, st, agg, reps[20:], frames[20:])
}

func TestProbeDisk(t *testing.T) {
	defer fault.Disarm()
	dir := t.TempDir()
	if err := ProbeDisk(dir); err != nil {
		t.Fatalf("ProbeDisk on writable dir: %v", err)
	}
	// A path that cannot exist (child of a regular file) must fail.
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ProbeDisk(filepath.Join(file, "sub")); err == nil {
		t.Fatal("ProbeDisk under a regular file succeeded")
	}
	// The probe's own fault site holds a degraded server down.
	fault.Arm(fault.Rule{Site: FaultDiskProbe, Mode: fault.ModeError})
	if err := ProbeDisk(dir); err == nil {
		t.Fatal("ProbeDisk succeeded with probe fault armed")
	}
}

// newestSegment returns the path of the highest-indexed WAL segment.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no WAL segments found")
	}
	sort.Strings(names)
	return filepath.Join(dir, names[len(names)-1])
}

// TestFailedCompactionKeepsSnapshotAndWAL: a background compaction (the
// one SnapshotEveryN triggers) whose snapshot write fails leaves the
// previous snapshot and the WAL it would have pruned in place, and
// reports the failure in Status().LastSnapshotError; ingestion goes on.
// A crash right then recovers every acked report. The next compaction
// succeeds and clears the error, and a reopen recovers every report.
func TestFailedCompactionKeepsSnapshotAndWAL(t *testing.T) {
	defer fault.Disarm()
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{Fsync: FsyncAlways, SnapshotEveryN: 100})
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	st.SetSource(sourceOf(agg))
	reps, frames := makeFrames(t, p, 300, 52)
	ingestAll(t, st, agg, reps[:100], frames[:100])
	st.snapWG.Wait()
	first := st.snapsCopy()
	if len(first) != 1 || first[0].n != 100 {
		t.Fatalf("snapshots after the first 100 reports: %+v, want one of 100", first)
	}

	fault.Arm(fault.Rule{Site: FaultSnapshotWrite, Mode: fault.ModeError, Times: 1, Msg: "no space left on device"})
	ingestAll(t, st, agg, reps[100:200], frames[100:200])
	st.snapWG.Wait()
	status := st.Status()
	if !strings.Contains(status.LastSnapshotError, "no space left on device") || status.SinceSnapshot != 100 || st.WALErr() != nil {
		t.Fatalf("after the failed compaction: %+v (WAL error %v)", status, st.WALErr())
	}
	if snaps := st.snapsCopy(); len(snaps) != 1 || snaps[0].path != first[0].path {
		t.Fatalf("the failed compaction changed the snapshots: %+v", snaps)
	}
	if _, err := os.Stat(first[0].path); err != nil {
		t.Fatal(err)
	}
	image := t.TempDir()
	copyFiles(t, dir, image)
	crashed, err := Open(image, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recoveredState(t, crashed), referenceState(t, p, reps[:200])) {
		t.Fatal("a crash after the failed compaction lost reports")
	}
	crashed.crash()

	// One chunk, so the compaction it triggers covers all of it.
	if err := ingestChunkErr(st, agg, reps[200:], batchOf(frames[200:])); err != nil {
		t.Fatal(err)
	}
	st.snapWG.Wait()
	if status := st.Status(); status.LastSnapshotError != "" || status.SnapshotReports != 300 {
		t.Fatalf("after the next compaction: %+v", status)
	}
	st.crash()
	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(recoveredState(t, re), referenceState(t, p, reps)) {
		t.Fatal("reopened store differs from the reports")
	}
}

// TestFailedCompactionBacksOff: under a persistent snapshot write error
// a background compaction is retried once per SnapshotEveryN reports,
// not on every ingest, since each attempt rotates a WAL segment and
// marshals the whole state under the exclusive barrier. Fifty 10-report
// ingests past SnapshotEveryN = 100 make at most five attempts and five
// segments; once the disk recovers the next attempt succeeds and a
// reopen recovers every report.
func TestFailedCompactionBacksOff(t *testing.T) {
	defer fault.Disarm()
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{SnapshotEveryN: 100})
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	st.SetSource(sourceOf(agg))
	reps, frames := makeFrames(t, p, 600, 53)
	segments := st.Status().Segments
	fault.Arm(fault.Rule{Site: FaultSnapshotWrite, Mode: fault.ModeError, Msg: "no space left on device"})
	for lo := 0; lo < 500; lo += 10 {
		if err := ingestChunkErr(st, agg, reps[lo:lo+10], batchOf(frames[lo:lo+10])); err != nil {
			t.Fatal(err)
		}
		st.snapWG.Wait()
	}
	status := st.Status()
	if attempts := fault.Default.Fired(); attempts > 5 {
		t.Errorf("%d compaction attempts over 500 reports, want at most 5", attempts)
	}
	if grown := status.Segments - segments; grown > 5 {
		t.Errorf("%d new WAL segments over 500 reports, want at most 5", grown)
	}
	if !strings.Contains(status.LastSnapshotError, "no space left on device") || status.SinceSnapshot != 500 {
		t.Fatalf("under the failing disk: %+v", status)
	}

	fault.Disarm()
	if err := ingestChunkErr(st, agg, reps[500:], batchOf(frames[500:])); err != nil {
		t.Fatal(err)
	}
	st.snapWG.Wait()
	if status := st.Status(); status.LastSnapshotError != "" || status.SnapshotReports != 600 {
		t.Fatalf("after the disk recovered: %+v", status)
	}
	st.crash()
	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(recoveredState(t, re), referenceState(t, p, reps)) {
		t.Fatal("reopened store differs from the reports")
	}
}
