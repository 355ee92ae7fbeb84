// Package store is the durability layer of a marginal-release
// deployment. Under the paper's one-round collection model every report
// is irreplaceable — a user reports once, ever — so losing aggregator
// state loses privacy budget that can never be re-spent. The store
// makes acked reports survive a crash with two artifacts in one data
// directory:
//
//   - A write-ahead log of report frames: append-only segments of
//     CRC-checked, length-prefixed records (the same framing as the
//     /report/batch wire format), rotated by size. The fsync policy
//     trades durability window against throughput: FsyncAlways
//     group-commits every ingest, FsyncInterval batches fsyncs on a
//     timer, FsyncOff leaves flushing to the OS.
//
//   - Counter snapshots: the aggregator's MarshalState blob plus the
//     WAL segment index it covers, written atomically. A snapshot
//     compacts the log — segments at or below the covered index carry
//     no information the snapshot doesn't — so the WAL stays short and
//     recovery stays fast. The two newest snapshots are retained; older
//     snapshots and the segments they make redundant are deleted.
//
// A windowed node's store persists the window ring's parts (SetWindow,
// Cross). Each bucket boundary is one call under the exclusive barrier:
// the active segment closes, every newly sealed bucket is written once
// as an immutable bkt-* file, and an expired bucket's file and segments
// are deleted. Snapshots then hold the live bucket only, and segments
// stay until their bucket expires. A cumulative node writes no bucket
// files, so its data dir is what it always was.
//
// Open recovers: it loads the bucket files, then the newest valid
// snapshot no bucket file supersedes (falling back past a corrupt one),
// replays the WAL tail through the batch decoder and ConsumeBatch, and
// tolerates a torn final record by truncating it. Because aggregation
// is associative integer counting, every recovered state is byte-
// identical to the state that produced the log.
package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/fault"
	"ldpmarginals/internal/loop"
	"ldpmarginals/internal/trace"
	"ldpmarginals/internal/window"
	"ldpmarginals/internal/wire"
)

// FsyncPolicy selects when WAL appends are made durable.
type FsyncPolicy int

const (
	// FsyncInterval (the default) fsyncs the active segment on a timer:
	// an ack guarantees the OS has the bytes, and at most
	// defaultFsyncPeriod (100 ms) of acked reports are exposed to a
	// power loss. Process crashes lose nothing.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs before every ack, group-committed: concurrent
	// ingests queued behind one fsync share it.
	FsyncAlways
	// FsyncOff never fsyncs during operation (a clean Close still
	// syncs); the OS flushes on its own schedule.
	FsyncOff
)

// String returns the policy's flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsync maps a flag spelling to its policy.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (always, interval, off)", s)
	}
}

// Options tunes a store; the zero value selects the defaults.
type Options struct {
	// Fsync is the WAL durability policy; the zero value is
	// FsyncInterval.
	Fsync FsyncPolicy
	// SnapshotEveryN compacts the WAL into a counter snapshot once this
	// many reports have been appended since the last snapshot, and after
	// a failed compaction once this many more; <= 0 snapshots only on
	// Close (and explicit Snapshot calls).
	SnapshotEveryN int

	// segmentBytes rotates the active WAL segment once it exceeds this
	// size; <= 0 selects defaultSegmentBytes. Only tests set it, to
	// rotate after a few records.
	segmentBytes int64
	// fsyncPeriod is the timer period of FsyncInterval; <= 0 selects
	// defaultFsyncPeriod. Only tests set it, to see the timer fire.
	fsyncPeriod time.Duration
}

// defaultSegmentBytes is the size past which the active WAL segment
// rotates.
const defaultSegmentBytes = 64 << 20

// defaultFsyncPeriod is how often FsyncInterval fsyncs the active
// segment.
const defaultFsyncPeriod = 100 * time.Millisecond

func (o Options) withDefaults() Options {
	if o.fsyncPeriod <= 0 {
		o.fsyncPeriod = defaultFsyncPeriod
	}
	if o.segmentBytes <= 0 {
		o.segmentBytes = defaultSegmentBytes
	}
	return o
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// RecoveryStats describes what Open reconstructed from the data
// directory.
type RecoveryStats struct {
	// Reports is the recovered report count: the live aggregator's plus,
	// on a windowed dir, every sealed bucket's.
	Reports int
	// SnapshotSeq and SnapshotReports identify the snapshot the
	// recovery started from (0 reports and seq 0 when none was loaded).
	SnapshotSeq     uint64
	SnapshotReports int
	// SnapshotsDiscarded counts newer snapshot files that failed
	// validation and were skipped.
	SnapshotsDiscarded int
	// BucketsRebuilt counts a windowed node's bucket files that failed
	// validation; each such bucket was rebuilt from its WAL segments.
	BucketsRebuilt int
	// SegmentsReplayed and ReportsReplayed describe the WAL tail walked
	// after the snapshot (reports, not group records: one WAL record
	// holds a whole ingested group).
	SegmentsReplayed int
	ReportsReplayed  int
	// TornTailTruncations counts torn final records (or torn final
	// segment headers) dropped during replay — at most one per crash.
	TornTailTruncations int
}

// Store is the durable ingestion log of one deployment. Safe for
// concurrent use.
type Store struct {
	dir  string
	p    core.Protocol
	tag  encoding.Tag
	cfg  core.Config
	opts Options

	// barrier orders ingests against snapshots: Ingest holds it shared
	// around the consume+append pair, Snapshot holds it exclusively, so
	// a snapshot sees a state that matches the WAL exactly.
	barrier sync.RWMutex
	closed  bool

	reqs       chan *walReq
	commitStop chan struct{}
	commitDone chan struct{}
	// stopFsync stops the FsyncInterval timer; a no-op under the other
	// policies, which start none.
	stopFsync func()

	source func() (core.Aggregator, error)

	// ring, set on a windowed node, lists the ring whose sealed buckets
	// are persisted as the bkt-* files in bkts (slot-ascending). The live
	// bucket rests on liveBase, the segment the newest bucket file
	// covers, and on liveSuper, the newest snapshot seq that file
	// supersedes. These and lastSeq change under the exclusive barrier.
	ring      func() window.Layout
	bkts      []bucketFile
	liveBase  uint64
	liveSuper uint64
	lastSeq   uint64 // newest snapshot seq written or found on disk

	sinceSnap atomic.Int64
	snapWG    sync.WaitGroup
	snapBusy  atomic.Bool

	statsMu     sync.Mutex
	snaps       []snapMeta // valid snapshots, ascending seq
	lastSnapErr error

	walErr atomic.Pointer[error] // first committer write/sync failure, sticky

	ins *storeInstruments

	recovered core.Aggregator
	layout    window.Layout // what recovery rebuilt of a windowed node's ring
	recStats  RecoveryStats
}

// Open recovers the deployment state persisted in dir (creating it if
// needed) and starts the write-ahead log. The protocol must match the
// one the directory was written by.
func Open(dir string, p core.Protocol, opts Options) (*Store, error) {
	tag, err := encoding.TagForProtocol(p.Name())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:        dir,
		p:          p,
		tag:        tag,
		cfg:        p.Config(),
		opts:       opts.withDefaults(),
		reqs:       make(chan *walReq, 128),
		commitStop: make(chan struct{}),
		commitDone: make(chan struct{}),
		stopFsync:  func() {},
		ins:        newStoreInstruments(),
	}
	maxSeg, err := s.recover()
	if err != nil {
		return nil, err
	}
	s.sinceSnap.Store(int64(s.recStats.ReportsReplayed))
	f, size, err := s.createSegment(maxSeg + 1)
	if err != nil {
		return nil, err
	}
	go s.committer(f, maxSeg+1, size)
	if s.opts.Fsync == FsyncInterval {
		s.stopFsync = loop.Every(s.opts.fsyncPeriod, s.syncNow)
	}
	return s, nil
}

// recover loads the newest valid snapshot and replays the WAL tail,
// leaving the reconstructed aggregator in s.recovered. It returns the
// highest segment index present (0 when none).
func (s *Store) recover() (maxSeg uint64, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	var segs, snapSeqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeqName(e.Name(), "wal-", segSuffix); ok {
			segs = append(segs, seq)
		}
		if seq, ok := parseSeqName(e.Name(), "snap-", snapSuffix); ok {
			snapSeqs = append(snapSeqs, seq)
		}
		if slot, covered, ok := parseBucketName(e.Name()); ok {
			s.bkts = append(s.bkts, bucketFile{slot: slot, covered: covered, path: filepath.Join(s.dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })
	sort.Slice(s.bkts, func(i, j int) bool { return s.bkts[i].slot < s.bkts[j].slot })
	if len(segs) > 0 {
		maxSeg = segs[len(segs)-1]
	}
	if len(snapSeqs) > 0 {
		s.lastSeq = snapSeqs[len(snapSeqs)-1]
	}
	// A windowed dir's sealed buckets come first: the newest bucket file
	// says where the live bucket begins.
	if err := s.recoverBuckets(segs); err != nil {
		return 0, err
	}

	// Validate every snapshot file; only valid ones enter s.snaps (and
	// with them the pruning schedule). The newest valid one that no
	// bucket file supersedes is restored.
	agg := s.p.NewAggregator()
	covered := s.liveBase
	for _, seq := range snapSeqs {
		path := filepath.Join(s.dir, snapName(seq))
		buf, rerr := os.ReadFile(path)
		if rerr != nil {
			return 0, rerr
		}
		m, derr := decodeSnapshot(buf, formatV1, s.tag, s.cfg)
		if derr != nil {
			s.recStats.SnapshotsDiscarded++
			continue
		}
		m.seq, m.path = seq, path
		s.snaps = append(s.snaps, m)
	}
	for i := len(s.snaps) - 1; i >= 0 && s.snaps[i].seq > s.liveSuper; i-- {
		m := s.snaps[i]
		if err := agg.UnmarshalState(m.state); err != nil {
			s.recStats.SnapshotsDiscarded++
			s.snaps = append(s.snaps[:i], s.snaps[i+1:]...)
			continue
		}
		if m.n != agg.N() {
			return 0, fmt.Errorf("store: snapshot %s declares %d reports but its state holds %d", m.path, m.n, agg.N())
		}
		covered = m.covered
		s.recStats.SnapshotSeq = m.seq
		s.recStats.SnapshotReports = m.n
		break
	}
	for i := range s.snaps {
		s.snaps[i].state = nil // only needed during recovery
	}

	for i, idx := range segs {
		if idx <= covered {
			continue
		}
		final := i == len(segs)-1
		if err := s.replaySegment(idx, final, agg); err != nil {
			return 0, err
		}
		s.recStats.SegmentsReplayed++
	}
	s.recStats.Reports += agg.N()
	s.recovered = agg
	return maxSeg, nil
}

// walkSegment checks the header of the segment at path and hands each
// record's payload to each, in order; a nil each only validates. A torn
// tail — an incomplete header, an incomplete record, or a record
// failing its CRC — is what a crash leaves in the final segment: there
// the walk truncates it away (durably) and stops, or removes a segment
// whose header never landed, and reports torn. Anywhere else the same
// damage is corruption and fails the walk.
func (s *Store) walkSegment(path string, final bool, each func(batch []byte) error) (torn bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	rest, err := checkSegHeader(buf, s.tag, s.cfg)
	if err != nil {
		if final && errors.Is(err, wire.ErrTruncated) {
			// A crash between segment creation and the header write: the
			// file carries nothing. Drop it entirely.
			return true, os.Remove(path)
		}
		return false, fmt.Errorf("store: segment %s: %w", path, err)
	}
	for len(rest) > 0 {
		offset := int64(len(buf) - len(rest))
		batch, next, err := nextRecord(rest)
		if err != nil {
			if final && (errors.Is(err, wire.ErrTruncated) || errors.Is(err, errRecordDamaged)) {
				if err := os.Truncate(path, offset); err != nil {
					return false, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
				}
				return true, syncFile(path)
			}
			return false, fmt.Errorf("store: segment %s at offset %d: %w", path, offset, err)
		}
		if each != nil {
			if err := each(batch); err != nil {
				return false, err
			}
		}
		rest = next
	}
	return false, nil
}

// replaySegment feeds one segment's records into agg, walking it with
// walkSegment, and counts a torn tail the walk dropped.
func (s *Store) replaySegment(idx uint64, final bool, agg core.Aggregator) error {
	path := filepath.Join(s.dir, segName(idx))
	// Decode buffers, reused from record to record.
	var (
		reps []core.Report
		ends []int
	)
	torn, err := s.walkSegment(path, final, func(batch []byte) error {
		// The record's CRC has passed, so its payload is exactly the
		// acked bytes of one /report/batch chunk, and goes back through
		// the path that acked it: the batch decoder, then ConsumeBatch.
		// Any failure below is corruption the CRC cannot explain (or a
		// code-version mismatch) and fails recovery rather than
		// truncating. "report N" is the running ordinal of the record's
		// first report for a decode failure (which names the frame within
		// the record itself), and of the rejected report otherwise.
		var (
			tag encoding.Tag
			err error
		)
		tag, reps, ends, err = encoding.UnmarshalBatchEndsInto(batch, 0, reps, ends)
		if err != nil {
			return fmt.Errorf("store: segment %s report %d: %w", path, s.recStats.ReportsReplayed, err)
		}
		if tag != s.tag {
			return fmt.Errorf("store: segment %s report %d: protocol tag %d, deployment runs %d", path, s.recStats.ReportsReplayed, tag, s.tag)
		}
		if err := agg.ConsumeBatch(reps); err != nil {
			var be *core.BatchError
			if errors.As(err, &be) {
				return fmt.Errorf("store: segment %s report %d: %w", path, s.recStats.ReportsReplayed+be.Index, be.Err)
			}
			return fmt.Errorf("store: segment %s report %d: %w", path, s.recStats.ReportsReplayed, err)
		}
		s.recStats.ReportsReplayed += len(reps)
		return nil
	})
	if torn && err == nil {
		s.recStats.TornTailTruncations++
	}
	return err
}

// repairSegmentTail truncates a torn tail left in segment idx by the
// partial write that killed the committer, exactly as recovery would
// after a crash (the segment is the final one); a segment that was
// never created needs no repair. Damage that a torn write cannot
// explain is real corruption and fails the repair. Runs on the
// committer goroutine during a revive, with the snapshot barrier held by
// Recover.
func (s *Store) repairSegmentTail(idx uint64) error {
	_, err := s.walkSegment(filepath.Join(s.dir, segName(idx)), true, nil)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Recover attempts to bring a store whose WAL has failed back to
// health: it revives the committer on a fresh segment (repairing any
// torn tail the failure left behind), clears the sticky WAL error, and
// forces a snapshot so reports consumed into memory while the log was
// dead become durable again. On a healthy store it is a no-op. If the
// disk is still bad the revive or snapshot fails, the store stays
// failed, and Recover returns the error — callers retry on their probe
// schedule.
func (s *Store) Recover() error {
	s.barrier.Lock()
	defer s.barrier.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.walFailure() == nil {
		return nil
	}
	req := &walReq{revive: true, done: make(chan walRes, 1)}
	s.reqs <- req
	res := <-req.done
	if res.err != nil {
		return fmt.Errorf("store: wal revive: %w", res.err)
	}
	s.walErr.Store(nil)
	// Everything consumed during the failure window lives only in
	// memory; only a forced snapshot makes disk cover memory again. If
	// it fails, re-mark the WAL failed so the caller's state machine
	// does not declare health the durability layer cannot back. A
	// windowed node first persists the buckets its ring sealed and
	// expired meanwhile.
	if s.source != nil {
		if s.ring != nil {
			if err := s.syncWindowLocked(true); err != nil {
				return fmt.Errorf("store: post-revive bucket sync: %w", err)
			}
		}
		if err := s.snapshotLocked(true); err != nil {
			err = fmt.Errorf("store: post-revive snapshot: %w", err)
			s.setWALFailure(err)
			return err
		}
	}
	return nil
}

// ProbeDisk verifies dir accepts durable writes by creating, fsyncing,
// and removing a sentinel file. Degraded-mode health probes call it
// before attempting Recover, so a still-full disk is detected without
// churning the WAL.
func ProbeDisk(dir string) error {
	if err := fault.Hit(FaultDiskProbe); err != nil {
		return err
	}
	path := filepath.Join(dir, "health.probe"+tmpSuffix)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("ldp disk probe\n"))
	serr := f.Sync()
	cerr := f.Close()
	rerr := os.Remove(path)
	for _, e := range []error{werr, serr, cerr, rerr} {
		if e != nil {
			return e
		}
	}
	return nil
}

func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Recovered returns the aggregator reconstructed by Open — the caller
// seeds its live pipeline with it (e.g. ShardedAggregator.Merge) — and
// the recovery statistics. On a windowed dir the aggregator is the live
// bucket and RecoveredLayout holds the sealed ones; Reports counts both.
// After ReleaseRecovered the aggregator is nil (the statistics remain).
func (s *Store) Recovered() (core.Aggregator, RecoveryStats) {
	return s.recovered, s.recStats
}

// ReleaseRecovered drops the store's references to the recovered state
// once the caller has seeded its live pipeline, so it is not pinned in
// memory twice for the store's lifetime.
func (s *Store) ReleaseRecovered() { s.recovered, s.layout = nil, window.Layout{} }

// SetSource registers the function snapshots read the live state from,
// typically ShardedAggregator.Snapshot. Snapshots (including the final
// one in Close) are skipped while no source is set.
func (s *Store) SetSource(src func() (core.Aggregator, error)) {
	s.source = src
}

// Ingest runs apply — the caller's consume into its live aggregator —
// under the snapshot barrier, then appends the accepted prefix of
// batch to the WAL as one group record before returning. batch holds
// the reports' wire frames in the /report/batch layout (length-
// prefixed frames); apply returns how many reports it accepted and the
// length in bytes of the corresponding prefix of batch, so the logged
// payload is the already-validated wire bytes verbatim — no re-marshal
// and no per-frame re-framing on the hot path.
//
// What "before returning" buys depends on the fsync policy. FsyncAlways
// waits for the write and a (group-committed) fsync: the ack implies
// the reports survive a power loss. FsyncInterval and FsyncOff enqueue
// the write to the committer and return: the record reaches the OS
// within microseconds (the committer is the only queue consumer) and
// the channel's FIFO order still lands it ahead of any later snapshot
// rotation, so crash recovery and snapshots stay exact; only an
// ill-timed power loss can lose it, which is those policies' contract.
// A committer write failure fails every subsequent Ingest.
//
// apply's error is returned after the accepted prefix is logged; a WAL
// failure takes precedence, since an unlogged-but-consumed report must
// not be acked as durable.
func (s *Store) Ingest(batch []byte, apply func() (reports, bytes int, err error)) error {
	return s.IngestContext(context.Background(), batch, apply)
}

// IngestContext is Ingest with trace propagation: when ctx carries an
// active request span, the WAL hand-off is recorded as a "wal.append"
// child (report/byte counts as attrs) and an FsyncAlways group-commit
// wait as a "wal.fsync" child under it.
func (s *Store) IngestContext(ctx context.Context, batch []byte, apply func() (reports, bytes int, err error)) error {
	s.barrier.RLock()
	defer s.barrier.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.walFailure(); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	consumed, nbytes, aerr := apply()
	if consumed > 0 {
		if nbytes <= 0 || nbytes > len(batch) {
			return fmt.Errorf("store: apply reported %d accepted bytes of a %d-byte batch", nbytes, len(batch))
		}
		// The committer frames batch[:nbytes] into records itself; the
		// caller must not modify the bytes after this point (the server
		// hands over per-request bodies, which nothing reuses).
		ctx, span := trace.StartSpan(ctx, "wal.append")
		span.SetInt("reports", int64(consumed))
		span.SetInt("bytes", int64(nbytes))
		t0 := time.Now()
		if s.opts.Fsync == FsyncAlways {
			req := &walReq{buf: batch[:nbytes], sync: true, done: make(chan walRes, 1)}
			s.reqs <- req
			_, fsp := trace.StartSpan(ctx, "wal.fsync")
			res := <-req.done
			fsp.End()
			if res.err != nil {
				span.SetAttr("error", res.err)
				span.End()
				return fmt.Errorf("store: wal append: %w", res.err)
			}
		} else {
			s.reqs <- &walReq{buf: batch[:nbytes]}
		}
		span.End()
		s.ins.appendWait.Observe(time.Since(t0).Seconds())
		// A compaction starts each time the count since the last
		// snapshot crosses a multiple of SnapshotEveryN, so a failed one
		// is retried after another SnapshotEveryN reports, not on every
		// ingest: each attempt rotates a segment and marshals the state.
		n := s.sinceSnap.Add(int64(consumed))
		if every := int64(s.opts.SnapshotEveryN); every > 0 && n/every > (n-int64(consumed))/every {
			s.triggerSnapshot()
		}
	}
	return aerr
}

// setWALFailure publishes the committer's first failure.
func (s *Store) setWALFailure(err error) {
	s.walErr.CompareAndSwap(nil, &err)
}

// walFailure is on the ingest hot path: one atomic load.
func (s *Store) walFailure() error {
	if p := s.walErr.Load(); p != nil {
		return *p
	}
	return nil
}

// triggerSnapshot starts one background compaction unless one is
// already running.
func (s *Store) triggerSnapshot() {
	if s.source == nil || !s.snapBusy.CompareAndSwap(false, true) {
		return
	}
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		defer s.snapBusy.Store(false)
		if err := s.Snapshot(); err != nil && !errors.Is(err, ErrClosed) {
			s.statsMu.Lock()
			s.lastSnapErr = err
			s.statsMu.Unlock()
		}
	}()
}

// Snapshot compacts the log now: it stops ingestion momentarily, reads
// the live state through the registered source, writes a snapshot
// covering every completed WAL segment, and prunes snapshots and
// segments made redundant (keeping one fallback generation).
func (s *Store) Snapshot() error {
	s.barrier.Lock()
	defer s.barrier.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.snapshotLocked(false)
}

// Rotate closes the active WAL segment (synced) and opens the next
// one, returning the closed segment's index; an active segment that
// holds no record stays, and the reply is the segment before it.
func (s *Store) Rotate() (uint64, error) {
	s.barrier.RLock()
	defer s.barrier.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	if err := s.walFailure(); err != nil {
		return 0, fmt.Errorf("store: rotating segment: %w", err)
	}
	req := &walReq{rotate: true, done: make(chan walRes, 1)}
	s.reqs <- req
	res := <-req.done
	if res.err != nil {
		return 0, fmt.Errorf("store: rotating segment: %w", res.err)
	}
	return res.seg, nil
}

func (s *Store) snapshotLocked(force bool) error {
	if s.source == nil {
		return fmt.Errorf("store: no state source registered")
	}
	if !force && s.sinceSnap.Load() == 0 && len(s.snapsCopy()) > 0 {
		// Nothing arrived since the last snapshot: it is still exact.
		return nil
	}
	t0 := time.Now()
	agg, err := s.source()
	if err != nil {
		return fmt.Errorf("store: reading state source: %w", err)
	}
	state, err := agg.MarshalState()
	if err != nil {
		return fmt.Errorf("store: marshaling state: %w", err)
	}
	// Rotate so the snapshot's coverage ends on a segment boundary: with
	// the barrier held the WAL up to the rotated-out segment holds
	// exactly the reports in the state (plus those in older snapshots).
	req := &walReq{rotate: true, done: make(chan walRes, 1)}
	s.reqs <- req
	res := <-req.done
	if res.err != nil {
		return fmt.Errorf("store: rotating segment: %w", res.err)
	}
	seq := s.lastSeq + 1
	path, err := s.writeSnapshotFile(snapName(seq), encodeSnapshot(s.tag, s.cfg, res.seg, agg.N(), state))
	if err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	s.lastSeq = seq
	s.statsMu.Lock()
	s.snaps = append(s.snaps, snapMeta{seq: seq, covered: res.seg, n: agg.N(), path: path})
	s.lastSnapErr = nil
	s.statsMu.Unlock()
	s.sinceSnap.Store(0)
	s.prune()
	s.ins.snapshotDur.Observe(time.Since(t0).Seconds())
	s.ins.snapshots.Inc()
	return nil
}

func (s *Store) snapsCopy() []snapMeta {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return append([]snapMeta(nil), s.snaps...)
}

// prune deletes snapshots beyond the two newest and every WAL segment
// at or below the older retained snapshot's coverage. Keeping one
// fallback generation means a corrupt newest snapshot can still recover
// in full: the previous snapshot plus the segments above its coverage
// reconstruct the same state.
func (s *Store) prune() {
	s.statsMu.Lock()
	var drop []string
	for len(s.snaps) > 2 {
		drop = append(drop, s.snaps[0].path)
		s.snaps = s.snaps[1:]
	}
	var covered uint64
	if len(s.snaps) >= 2 && s.ring == nil {
		// A windowed node's segments stay until their bucket expires, so
		// a damaged bucket file can be rebuilt from them.
		covered = s.snaps[0].covered
	}
	s.statsMu.Unlock()
	_ = s.removeFiles(drop, covered)
}

// removeFiles deletes paths and every WAL segment at or below upTo,
// then makes the deletions durable.
func (s *Store) removeFiles(paths []string, upTo uint64) error {
	if upTo > 0 {
		entries, err := os.ReadDir(s.dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if idx, ok := parseSeqName(e.Name(), "wal-", segSuffix); ok && idx <= upTo {
				paths = append(paths, filepath.Join(s.dir, e.Name()))
			}
		}
	}
	for _, path := range paths {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if len(paths) > 0 && s.opts.Fsync != FsyncOff {
		return syncDir(s.dir)
	}
	return nil
}

// Status describes the store's durable footprint for monitoring
// endpoints.
type Status struct {
	// Fsync is the policy's flag spelling.
	Fsync string
	// Segments and WALBytes describe the live write-ahead log
	// (including segments retained only for the fallback snapshot).
	Segments int
	WALBytes int64
	// SnapshotReports is the report count of the newest snapshot (0
	// when none exists yet).
	SnapshotReports int
	// SinceSnapshot is the number of reports appended after the newest
	// snapshot.
	SinceSnapshot int
	// LastSnapshotError is the most recent background-compaction
	// failure, cleared by the next success.
	LastSnapshotError string
	// Recovery describes what Open reconstructed.
	Recovery RecoveryStats
}

// Status reports the current durable footprint. The segment walk reads
// the directory; it is meant for status endpoints, not hot paths.
func (s *Store) Status() Status {
	st := Status{
		Fsync:         s.opts.Fsync.String(),
		SinceSnapshot: int(s.sinceSnap.Load()),
		Recovery:      s.recStats,
	}
	s.statsMu.Lock()
	if len(s.snaps) > 0 {
		st.SnapshotReports = s.snaps[len(s.snaps)-1].n
	} else {
		st.SnapshotReports = s.recStats.SnapshotReports
	}
	if s.lastSnapErr != nil {
		st.LastSnapshotError = s.lastSnapErr.Error()
	}
	s.statsMu.Unlock()
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if _, ok := parseSeqName(e.Name(), "wal-", segSuffix); !ok {
				continue
			}
			st.Segments++
			if info, err := e.Info(); err == nil {
				st.WALBytes += info.Size()
			}
		}
	}
	return st
}

// Fsync returns the configured durability policy.
func (s *Store) Fsync() FsyncPolicy { return s.opts.Fsync }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Close flushes and fsyncs the WAL, writes a final snapshot (when a
// source is registered and reports arrived since the last one), and
// stops the store. Ingest calls after Close fail with ErrClosed. Close
// is idempotent.
func (s *Store) Close() error {
	s.barrier.Lock()
	if s.closed {
		s.barrier.Unlock()
		return nil
	}
	var err error
	if s.source != nil {
		err = s.snapshotLocked(false)
	}
	s.closed = true
	s.barrier.Unlock()
	// Background snapshots blocked on the barrier observe closed and
	// exit without touching the committer.
	s.snapWG.Wait()
	s.stopFsync()
	close(s.commitStop)
	<-s.commitDone
	// The committer's final flush runs during the drain above; a
	// failure there (or any earlier sticky WAL failure) means acked
	// writes may not be durable, which Close must not hide.
	if werr := s.walFailure(); err == nil && werr != nil {
		err = werr
	}
	return err
}

// syncNow is one tick of the FsyncInterval timer: it fsyncs whatever
// the committer has written since the last sync and waits for it.
func (s *Store) syncNow() {
	req := &walReq{sync: true, done: make(chan walRes, 1)}
	s.reqs <- req
	<-req.done
}
