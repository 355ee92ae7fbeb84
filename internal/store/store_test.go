package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
)

func testProtocol(t testing.TB) core.Protocol {
	t.Helper()
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// makeFrames generates n deterministic reports and their wire frames.
func makeFrames(t testing.TB, p core.Protocol, n int, seed uint64) ([]core.Report, [][]byte) {
	t.Helper()
	client := p.NewClient()
	r := rng.New(seed)
	reps := make([]core.Report, n)
	frames := make([][]byte, n)
	for i := range reps {
		rep, err := client.Perturb(uint64(i%256), r)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := encoding.Marshal(p.Name(), rep)
		if err != nil {
			t.Fatal(err)
		}
		reps[i], frames[i] = rep, frame
	}
	return reps, frames
}

// batchOf concatenates frames into the /report/batch wire layout — the
// shape Ingest takes.
func batchOf(frames [][]byte) []byte {
	var b []byte
	for _, f := range frames {
		b = encoding.AppendFrame(b, f)
	}
	return b
}

// ingestAll drives reports through st.Ingest into agg (an aggregator or
// a window ring) in chunks, mirroring the server's batch path.
func ingestAll(t testing.TB, st *Store, agg interface{ ConsumeBatch([]core.Report) error }, reps []core.Report, frames [][]byte) {
	t.Helper()
	const chunk = 64
	for lo := 0; lo < len(reps); lo += chunk {
		hi := min(lo+chunk, len(reps))
		batch := batchOf(frames[lo:hi])
		err := st.Ingest(batch, func() (int, int, error) {
			if err := agg.ConsumeBatch(reps[lo:hi]); err != nil {
				return 0, 0, err
			}
			return hi - lo, len(batch), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// flushWAL waits until the committer has processed everything queued
// ahead of it — Status reads files, and fire-and-forget appends may
// still be in the queue.
func (s *Store) flushWAL() {
	req := &walReq{done: make(chan walRes, 1)}
	s.reqs <- req
	<-req.done
}

// crash stops the store's goroutines without the final snapshot or any
// shutdown bookkeeping — the in-process stand-in for SIGKILL. The WAL
// files are left exactly as the committer last wrote them.
func (s *Store) crash() {
	s.barrier.Lock()
	if s.closed {
		s.barrier.Unlock()
		return
	}
	s.closed = true
	s.barrier.Unlock()
	s.snapWG.Wait()
	s.stopFsync()
	close(s.commitStop)
	<-s.commitDone
}

// referenceState is the state of a sequential aggregator fed the
// reports in order — what any recovery must reproduce byte-for-byte.
func referenceState(t testing.TB, p core.Protocol, reps []core.Report) []byte {
	t.Helper()
	agg := p.NewAggregator()
	if err := agg.ConsumeBatch(reps); err != nil {
		t.Fatal(err)
	}
	blob, err := agg.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func recoveredState(t testing.TB, st *Store) []byte {
	t.Helper()
	agg, _ := st.Recovered()
	blob, err := agg.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestCrashRecoveryReplaysWAL(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	reps, frames := makeFrames(t, p, 1000, 1)
	agg := core.NewSharded(p, 4)
	ingestAll(t, st, agg, reps, frames)
	st.crash()

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec, stats := re.Recovered()
	if rec.N() != len(reps) {
		t.Fatalf("recovered %d reports, want %d", rec.N(), len(reps))
	}
	if stats.ReportsReplayed != len(reps) || stats.SegmentsReplayed == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if !bytes.Equal(recoveredState(t, re), referenceState(t, p, reps)) {
		t.Fatal("recovered state differs from sequential reference")
	}
}

func TestCrashRecoveryByteIdenticalToCleanShutdown(t *testing.T) {
	p := testProtocol(t)
	reps, frames := makeFrames(t, p, 1200, 2)
	ref := referenceState(t, p, reps)

	run := func(dir string, clean bool) []byte {
		st, err := Open(dir, p, Options{Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		agg := core.NewSharded(p, 3)
		st.SetSource(agg.Snapshot)
		ingestAll(t, st, agg, reps, frames)
		if clean {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			st.crash()
		}
		re, err := Open(dir, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		return recoveredState(t, re)
	}

	crashed := run(t.TempDir(), false)
	cleaned := run(t.TempDir(), true)
	if !bytes.Equal(crashed, ref) {
		t.Fatal("crash recovery differs from sequential reference")
	}
	if !bytes.Equal(cleaned, ref) {
		t.Fatal("clean-shutdown recovery differs from sequential reference")
	}
	if !bytes.Equal(crashed, cleaned) {
		t.Fatal("crash recovery differs from clean shutdown")
	}
}

func TestCloseSnapshotsAndRecoveryLoadsIt(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps, frames := makeFrames(t, p, 700, 3)
	agg := core.NewSharded(p, 2)
	st.SetSource(agg.Snapshot)
	ingestAll(t, st, agg, reps, frames)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	_, stats := re.Recovered()
	if stats.SnapshotReports != len(reps) || stats.ReportsReplayed != 0 {
		t.Fatalf("recovery after clean close replayed WAL: %+v", stats)
	}
	if !bytes.Equal(recoveredState(t, re), referenceState(t, p, reps)) {
		t.Fatal("snapshot recovery differs from sequential reference")
	}
}

func TestRecoverSnapshotPlusTail(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps, frames := makeFrames(t, p, 900, 4)
	agg := core.NewSharded(p, 2)
	st.SetSource(agg.Snapshot)
	ingestAll(t, st, agg, reps[:600], frames[:600])
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, st, agg, reps[600:], frames[600:])
	st.crash()

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	_, stats := re.Recovered()
	if stats.SnapshotReports != 600 || stats.ReportsReplayed != 300 || stats.Reports != 900 {
		t.Fatalf("stats = %+v", stats)
	}
	if !bytes.Equal(recoveredState(t, re), referenceState(t, p, reps)) {
		t.Fatal("snapshot+tail recovery differs from sequential reference")
	}
}

// lastSegment returns the path of the highest-index WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	var bestIdx uint64
	for _, e := range entries {
		if idx, ok := parseSeqName(e.Name(), "wal-", segSuffix); ok && idx >= bestIdx {
			best, bestIdx = filepath.Join(dir, e.Name()), idx
		}
	}
	if best == "" {
		t.Fatal("no WAL segments")
	}
	return best
}

func TestTornTailTruncated(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps, frames := makeFrames(t, p, 50, 5)
	agg := p.NewAggregator()
	// Two Ingest calls, so the log holds two group records: tearing the
	// second must recover exactly the first.
	ingestAll(t, st, agg, reps[:40], frames[:40])
	ingestAll(t, st, agg, reps[40:], frames[40:])
	st.crash()

	// Tear the final record: chop off its last 2 bytes.
	path := lastSegment(t, dir)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, stats := re.Recovered()
	if stats.TornTailTruncations != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if rec.N() != 40 {
		t.Fatalf("recovered %d reports, want the 40 in the intact record", rec.N())
	}
	if !bytes.Equal(recoveredState(t, re), referenceState(t, p, reps[:40])) {
		t.Fatal("truncated recovery differs from reference over the intact prefix")
	}
	re.crash()

	// A second recovery sees the already-truncated (clean) log.
	re2, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	rec2, stats2 := re2.Recovered()
	if stats2.TornTailTruncations != 0 || rec2.N() != 40 {
		t.Fatalf("second recovery: n=%d stats=%+v", rec2.N(), stats2)
	}
}

func TestMidLogCorruptionFailsRecovery(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	// Tiny segments force several rotations.
	st, err := Open(dir, p, Options{segmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	reps, frames := makeFrames(t, p, 400, 6)
	agg := p.NewAggregator()
	ingestAll(t, st, agg, reps, frames)
	st.crash()

	// Flip a record byte in the FIRST segment: damage before the final
	// segment is corruption, not a torn tail.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var first string
	firstIdx := ^uint64(0)
	segCount := 0
	for _, e := range entries {
		if idx, ok := parseSeqName(e.Name(), "wal-", segSuffix); ok {
			segCount++
			if idx < firstIdx {
				first, firstIdx = filepath.Join(dir, e.Name()), idx
			}
		}
	}
	if segCount < 3 {
		t.Fatalf("want several segments, got %d", segCount)
	}
	buf, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x01
	if err := os.WriteFile(first, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, p, Options{}); err == nil {
		t.Fatal("mid-log corruption recovered silently")
	}
}

func TestSnapshotFallbackAfterCorruptNewest(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps, frames := makeFrames(t, p, 900, 7)
	agg := core.NewSharded(p, 2)
	st.SetSource(agg.Snapshot)
	ingestAll(t, st, agg, reps[:300], frames[:300])
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, st, agg, reps[300:600], frames[300:600])
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, st, agg, reps[600:], frames[600:])
	st.crash()

	// Corrupt the newest snapshot; the fallback generation plus the
	// retained WAL must still reconstruct everything.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	var newestSeq uint64
	for _, e := range entries {
		if seq, ok := parseSeqName(e.Name(), "snap-", snapSuffix); ok && seq >= newestSeq {
			newest, newestSeq = filepath.Join(dir, e.Name()), seq
		}
	}
	if newest == "" {
		t.Fatal("no snapshots written")
	}
	buf, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x10
	if err := os.WriteFile(newest, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec, stats := re.Recovered()
	if stats.SnapshotsDiscarded != 1 || stats.SnapshotReports != 300 {
		t.Fatalf("stats = %+v", stats)
	}
	if rec.N() != len(reps) {
		t.Fatalf("recovered %d reports, want %d", rec.N(), len(reps))
	}
	if !bytes.Equal(recoveredState(t, re), referenceState(t, p, reps)) {
		t.Fatal("fallback recovery differs from sequential reference")
	}
}

func TestSnapshotPrunesSegments(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{segmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reps, frames := makeFrames(t, p, 600, 8)
	agg := core.NewSharded(p, 2)
	st.SetSource(agg.Snapshot)
	ingestAll(t, st, agg, reps[:300], frames[:300])
	st.flushWAL()
	grown := st.Status().Segments
	if grown < 3 {
		t.Fatalf("want rotation, got %d segments", grown)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, st, agg, reps[300:], frames[300:])
	st.flushWAL()
	preSecond := st.Status().Segments
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// The second snapshot prunes every segment the first one covers (the
	// segments above it stay as the fallback generation's replay tail,
	// and the rotation adds a fresh active segment).
	after := st.Status()
	if after.Segments > preSecond-2 {
		t.Fatalf("pruning kept %d of %d segments", after.Segments, preSecond)
	}
	if after.SnapshotReports != 600 || after.SinceSnapshot != 0 {
		t.Fatalf("status = %+v", after)
	}
}

func TestAutoSnapshotEveryN(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{SnapshotEveryN: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reps, frames := makeFrames(t, p, 250, 9)
	agg := core.NewSharded(p, 2)
	st.SetSource(agg.Snapshot)
	ingestAll(t, st, agg, reps, frames)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st.Status().SnapshotReports > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic snapshot: %+v", st.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestProtocolMismatchFailsRecovery(t *testing.T) {
	inpHT := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, inpHT, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps, frames := makeFrames(t, inpHT, 50, 10)
	agg := inpHT.NewAggregator()
	ingestAll(t, st, agg, reps, frames)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	margHT, err := core.New(core.MargHT, core.Config{D: 8, K: 2, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, margHT, Options{}); err == nil {
		t.Fatal("MargHT opened an InpHT directory")
	}
	otherD, err := core.New(core.InpHT, core.Config{D: 10, K: 2, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, otherD, Options{}); err == nil {
		t.Fatal("d=10 deployment opened a d=8 directory")
	}

	// InpRR is no longer served: opening a store for it is refused by
	// name before the directory is created, and a segment an InpRR node
	// wrote (tag 1) is refused by name when another protocol opens it.
	inpRR, err := core.New(core.InpRR, core.Config{D: 8, K: 2, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(t.TempDir(), "inprr")
	if _, err := Open(fresh, inpRR, Options{}); err == nil || !strings.Contains(err.Error(), "InpRR (tag 1)") {
		t.Fatalf("Open for InpRR: %v; want a refusal naming InpRR (tag 1)", err)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Fatalf("refused Open created its directory: stat %v", err)
	}
	inpRRDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(inpRRDir, segName(1)), segHeader(1, inpHT.Config()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(inpRRDir, inpHT, Options{}); err == nil || !strings.Contains(err.Error(), "InpRR (tag 1)") {
		t.Fatalf("InpHT opened an InpRR segment: %v; want a refusal naming InpRR (tag 1)", err)
	}
}

func TestIngestPartialBatchLogsAcceptedPrefix(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps, frames := makeFrames(t, p, 10, 11)
	agg := p.NewAggregator()
	rejection := errors.New("report 4 rejected")
	batch := batchOf(frames)
	prefix := len(batchOf(frames[:4]))
	err = st.Ingest(batch, func() (int, int, error) {
		if err := agg.ConsumeBatch(reps[:4]); err != nil {
			return 0, 0, err
		}
		return 4, prefix, rejection
	})
	if !errors.Is(err, rejection) {
		t.Fatalf("Ingest error = %v, want the apply rejection", err)
	}
	st.crash()

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec, _ := re.Recovered()
	if rec.N() != 4 {
		t.Fatalf("recovered %d reports, want the 4 accepted", rec.N())
	}
	if !bytes.Equal(recoveredState(t, re), referenceState(t, p, reps[:4])) {
		t.Fatal("recovered state differs from accepted prefix")
	}
}

func TestIngestAfterCloseFails(t *testing.T) {
	p := testProtocol(t)
	st, err := Open(t.TempDir(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	err = st.Ingest([]byte{1, 0}, func() (int, int, error) { return 1, 2, nil })
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close = %v, want ErrClosed", err)
	}
}

// timerGoroutines counts the goroutines a loop.Every started — the
// store's only one is the FsyncInterval timer.
func timerGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by ldpmarginals/internal/loop.Every")
}

// TestIntervalPolicyFsyncsOnItsTimer pins the FsyncInterval timer: one
// fire-and-forget append is fsynced by the timer alone, and FsyncOff
// neither fsyncs nor runs a timer.
func TestIntervalPolicyFsyncsOnItsTimer(t *testing.T) {
	const period = 10 * time.Millisecond
	p := testProtocol(t)
	reps, frames := makeFrames(t, p, 1, 6)
	for _, tc := range []struct {
		policy FsyncPolicy
		timers int
	}{{FsyncInterval, 1}, {FsyncOff, 0}} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			before := timerGoroutines()
			st, err := Open(t.TempDir(), p, Options{Fsync: tc.policy, fsyncPeriod: period})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if got := timerGoroutines() - before; got != tc.timers {
				t.Fatalf("%d timer goroutines under %v, want %d", got, tc.policy, tc.timers)
			}
			ingestAll(t, st, p.NewAggregator(), reps, frames)
			fsyncs := st.ins.walFsync.Count
			if tc.policy == FsyncOff {
				time.Sleep(5 * period)
				st.flushWAL()
				if got := fsyncs(); got != 0 {
					t.Fatalf("%d fsyncs under FsyncOff, want 0", got)
				}
				return
			}
			deadline := time.Now().Add(5 * time.Second)
			for fsyncs() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the interval timer never fsynced the append")
				}
				time.Sleep(period)
			}
		})
	}
}

func TestConcurrentIngestAndSnapshot(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{Fsync: FsyncAlways, segmentBytes: 4096, SnapshotEveryN: 500})
	if err != nil {
		t.Fatal(err)
	}
	agg := core.NewSharded(p, 4)
	st.SetSource(agg.Snapshot)
	reps, frames := makeFrames(t, p, 4000, 12)
	const workers = 8
	errc := make(chan error, workers)
	per := len(reps) / workers
	for w := 0; w < workers; w++ {
		go func(lo int) {
			for i := lo; i < lo+per; i += 50 {
				hi := min(i+50, lo+per)
				batch := batchOf(frames[i:hi])
				err := st.Ingest(batch, func() (int, int, error) {
					if err := agg.ConsumeBatch(reps[i:hi]); err != nil {
						return 0, 0, err
					}
					return hi - i, len(batch), nil
				})
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w * per)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec, _ := re.Recovered()
	if rec.N() != len(reps) {
		t.Fatalf("recovered %d reports, want %d", rec.N(), len(reps))
	}
	// Counter aggregation is order-independent, so even the concurrent
	// interleaving recovers to the sequential reference byte-for-byte.
	if !bytes.Equal(recoveredState(t, re), referenceState(t, p, reps)) {
		t.Fatal("concurrent-ingest recovery differs from sequential reference")
	}
}

// TestOversizedGroupSplitsIntoRecords: one ingested group larger than
// maxGroupBytes (MargRR at k=16 sends 8 KiB frames) is logged as
// several records, each within maxGroupBytes and cut at a frame
// boundary, and replays after a crash to the state the reports built.
func TestOversizedGroupSplitsIntoRecords(t *testing.T) {
	p, err := core.New(core.MargRR, core.Config{D: 16, K: 16, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	// Reports drawn directly, not perturbed: a k=16 perturbation draws
	// 2^16 coins, and only the frames' size matters here.
	r := rng.New(51)
	reps := make([]core.Report, 600)
	frames := make([][]byte, len(reps))
	for i := range reps {
		bits := make([]uint64, 1<<16/64)
		for w := range bits {
			bits[w] = r.Uint64()
		}
		reps[i] = core.Report{Beta: 1<<16 - 1, Bits: bits}
		if frames[i], err = encoding.Marshal(p.Name(), reps[i]); err != nil {
			t.Fatal(err)
		}
	}
	batch := batchOf(frames)
	if len(batch) <= maxGroupBytes {
		t.Fatalf("group of %d bytes does not exceed maxGroupBytes", len(batch))
	}
	dir := t.TempDir()
	st, err := Open(dir, p, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	err = st.Ingest(batch, func() (int, int, error) { return len(reps), len(batch), agg.ConsumeBatch(reps) })
	if err != nil {
		t.Fatal(err)
	}
	st.crash()
	seg := lastSegment(t, dir)

	re, err := Open(dir, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var sizes []int
	logged := 0
	if _, err := re.walkSegment(seg, false, func(rec []byte) error {
		_, reps, err := encoding.UnmarshalBatch(rec, 0)
		sizes, logged = append(sizes, len(rec)), logged+len(reps)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != (len(batch)+maxGroupBytes-1)/maxGroupBytes || logged != len(reps) {
		t.Fatalf("a %d-byte group was logged as records of %v bytes holding %d reports", len(batch), sizes, logged)
	}
	for _, n := range sizes {
		if n > maxGroupBytes {
			t.Fatalf("record of %d bytes exceeds maxGroupBytes", n)
		}
	}
	if !bytes.Equal(recoveredState(t, re), referenceState(t, p, reps)) {
		t.Fatal("replayed state differs from the reports'")
	}
}
