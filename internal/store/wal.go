package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/fault"
	"ldpmarginals/internal/wire"
)

// Fault-injection sites threaded through the durability layer. Armed
// rules at these names (internal/fault) make the corresponding syscall
// path fail, for chaos tests and the -fault-spec dev flag; disarmed,
// each costs one atomic load.
const (
	// FaultWALAppend fails the committer's segment write. It is consulted
	// once per appended group, not once per write syscall, so a schedule
	// counts groups however the committer happened to coalesce them; a
	// group that fires fails the whole coalesced write it is part of.
	FaultWALAppend = "store.wal.append"
	// FaultWALFsync fails the committer's fsync (group commit, interval
	// tick, and pre-rotation syncs).
	FaultWALFsync = "store.wal.fsync"
	// FaultWALRotate fails opening a fresh segment file.
	FaultWALRotate = "store.wal.rotate"
	// FaultSnapshotWrite fails the atomic snapshot file write.
	FaultSnapshotWrite = "store.snapshot.write"
	// FaultDiskProbe fails ProbeDisk, holding a degraded server down
	// even though the real filesystem is fine.
	FaultDiskProbe = "store.probe.disk"
)

// WAL segment format. A segment is a header followed by length-prefixed
// records, each carrying one ingested group of reports:
//
//	"LDPW", version byte, config block
//	repeat: uvarint record length, then that many bytes of
//	        (batch || crc32c(batch), 4 bytes LE)
//
// where batch is the group's report frames in exactly the
// /report/batch wire layout (length-prefixed frames) — the framing
// logic exists once, in internal/wire, at both nesting levels. One
// record per ingested group keeps the durable path cheap (one CRC and
// one length prefix amortized over the whole group) and groups are
// acked atomically, so a torn tail loses only never-acked reports
// (FsyncAlways) or reports inside the configured durability window.
// The CRC detects torn and bit-flipped records without trusting
// anything beyond the framing. The config block pins the deployment
// (protocol tag, d, k, epsilon, PRR variant): a segment written by a
// different deployment is rejected at recovery instead of silently
// corrupting counters.

const (
	segMagic   = "LDPW"
	snapMagic  = "LDPS"
	formatV1   = 1
	formatV2   = 2
	crcBytes   = 4
	segSuffix  = ".seg"
	snapSuffix = ".snap"
	bktSuffix  = ".bkt"
	tmpSuffix  = ".tmp"
	// recordLimit bounds one record: an ingested group up to
	// maxGroupBytes of frames, each frame itself bounded by the wire
	// format, plus framing and checksum slack.
	recordLimit = maxGroupBytes + encoding.MaxFrameBytes + 64

	// maxGroupBytes is the target size at which Ingest splits a large
	// group across records.
	maxGroupBytes = 4 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func segName(idx uint64) string  { return fmt.Sprintf("wal-%016x%s", idx, segSuffix) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x%s", seq, snapSuffix) }

// bucketName names a sealed bucket's file by its slot and the segment
// it covers, so even a damaged body says which segments rebuild it.
func bucketName(slot, covered uint64) string {
	return fmt.Sprintf("bkt-%016x-%016x%s", slot, covered, bktSuffix)
}

// parseBucketName is the inverse of bucketName; ok is false for other
// files.
func parseBucketName(name string) (slot, covered uint64, ok bool) {
	_, err := fmt.Sscanf(name, "bkt-%16x-%16x"+bktSuffix, &slot, &covered)
	return slot, covered, err == nil && name == bucketName(slot, covered)
}

// parseSeqName extracts the hex sequence number from a wal-/snap- file
// name with the given prefix and suffix; ok is false for foreign files.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(prefix) : len(prefix)+16] {
		var v uint64
		switch {
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		default:
			return 0, false
		}
		seq = seq<<4 | v
	}
	return seq, true
}

// appendConfig serializes the deployment identity shared by segment and
// snapshot headers.
func appendConfig(dst []byte, tag encoding.Tag, cfg core.Config) []byte {
	dst = append(dst, byte(tag))
	dst = binary.AppendUvarint(dst, uint64(cfg.D))
	dst = binary.AppendUvarint(dst, uint64(cfg.K))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.Epsilon))
	opt := byte(0)
	if cfg.OptimizedPRR {
		opt = 1
	}
	return append(dst, opt)
}

// checkConfig parses a config block and verifies it names this
// deployment, returning the remaining bytes. Truncated input wraps
// wire.ErrTruncated so the recovery path can classify it as a torn
// write rather than a foreign file.
func checkConfig(buf []byte, tag encoding.Tag, cfg core.Config) ([]byte, error) {
	if len(buf) < 1 {
		return nil, fmt.Errorf("%w: header config", wire.ErrTruncated)
	}
	if got := encoding.Tag(buf[0]); got != tag {
		return nil, fmt.Errorf("store: written by %s, deployment runs %s", encoding.TagName(got), encoding.TagName(tag))
	}
	buf = buf[1:]
	d, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, fmt.Errorf("%w: header config", wire.ErrTruncated)
	}
	buf = buf[w:]
	k, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, fmt.Errorf("%w: header config", wire.ErrTruncated)
	}
	buf = buf[w:]
	if len(buf) < 9 {
		return nil, fmt.Errorf("%w: header config", wire.ErrTruncated)
	}
	eps := math.Float64frombits(binary.LittleEndian.Uint64(buf))
	opt := buf[8] != 0
	buf = buf[9:]
	if int(d) != cfg.D || int(k) != cfg.K || eps != cfg.Epsilon || opt != cfg.OptimizedPRR {
		return nil, fmt.Errorf("store: written for d=%d k=%d eps=%v optimized=%v, deployment runs d=%d k=%d eps=%v optimized=%v",
			d, k, eps, opt, cfg.D, cfg.K, cfg.Epsilon, cfg.OptimizedPRR)
	}
	return buf, nil
}

// segHeader builds a fresh segment's header bytes.
func segHeader(tag encoding.Tag, cfg core.Config) []byte {
	return appendConfig(append([]byte(segMagic), formatV1), tag, cfg)
}

// checkSegHeader validates a segment header and returns the records
// that follow it.
func checkSegHeader(buf []byte, tag encoding.Tag, cfg core.Config) ([]byte, error) {
	if len(buf) < len(segMagic)+1 {
		return nil, fmt.Errorf("%w: segment header", wire.ErrTruncated)
	}
	if string(buf[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("store: bad segment magic %q", buf[:len(segMagic)])
	}
	if buf[len(segMagic)] != formatV1 {
		return nil, fmt.Errorf("store: segment format version %d, want %d", buf[len(segMagic)], formatV1)
	}
	return checkConfig(buf[len(segMagic)+1:], tag, cfg)
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendRecord frames one group of report frames as a WAL record: the
// shared length-prefixed framing around batch || crc32c(batch), where
// batch is the group's wire bytes in exactly the /report/batch layout.
// Because the payload is the request body verbatim, the hot path is a
// length prefix, one copy, and one CRC over the group — no per-frame
// work. The record's exact size is computed up front so the
// destination grows at most once.
func appendRecord(dst, batch []byte) []byte {
	payload := len(batch) + crcBytes
	if need := uvarintLen(uint64(payload)) + payload; cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = binary.AppendUvarint(dst, uint64(payload))
	dst = append(dst, batch...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(batch, castagnoli))
}

// appendRecords encodes a batch into records, splitting at frame
// boundaries when a group exceeds maxGroupBytes (the boundary scan only
// runs in that rare case).
func appendRecords(dst, batch []byte) []byte {
	for len(batch) > maxGroupBytes {
		cut := 0
		for {
			_, rest, err := wire.NextFrame(batch[cut:], 0)
			if err != nil {
				// Callers hand over validated bytes; keep any remainder
				// whole rather than splitting mid-frame.
				cut = len(batch)
				break
			}
			next := len(batch) - len(rest)
			if cut > 0 && next > maxGroupBytes {
				break
			}
			cut = next
			if cut >= maxGroupBytes {
				break
			}
		}
		dst = appendRecord(dst, batch[:cut])
		batch = batch[cut:]
	}
	return appendRecord(dst, batch)
}

// errRecordDamaged classifies a record that a torn tail write could have
// produced: a CRC mismatch or a payload too short to carry its CRC.
// Recovery truncates these at the end of the final segment and treats
// them as corruption anywhere else.
var errRecordDamaged = errors.New("store: damaged record")

// nextRecord splits one record off buf and returns its verified batch
// of report frames. Truncation errors wrap wire.ErrTruncated and CRC
// failures wrap errRecordDamaged; anything else is structural
// corruption.
func nextRecord(buf []byte) (batch, rest []byte, err error) {
	payload, rest, err := wire.NextFrame(buf, recordLimit)
	if err != nil {
		return nil, nil, err
	}
	if len(payload) < crcBytes {
		return nil, nil, fmt.Errorf("%w: %d-byte record cannot carry a checksum", errRecordDamaged, len(payload))
	}
	batch = payload[:len(payload)-crcBytes]
	want := binary.LittleEndian.Uint32(payload[len(payload)-crcBytes:])
	if got := crc32.Checksum(batch, castagnoli); got != want {
		return nil, nil, fmt.Errorf("%w: checksum %08x, want %08x", errRecordDamaged, got, want)
	}
	return batch, rest, nil
}

// walReq is one unit of work for the committer goroutine, which owns
// the active segment file exclusively.
type walReq struct {
	// buf holds one group's raw batch payload (length-prefixed report
	// frames); the committer frames it into WAL records as it coalesces
	// writes, so producers never copy or re-encode. nil for a pure
	// flush/rotate.
	buf []byte
	// sync asks for an fsync covering the appended records before done.
	sync bool
	// rotate closes the active segment (synced) and opens the next one.
	rotate bool
	// revive asks a dead committer to abandon its failed segment
	// (repairing any torn tail it left) and resume on a fresh one; see
	// Store.Recover.
	revive bool
	// done, when non-nil, receives the request's outcome. FsyncAlways
	// appends and rotations wait on it; FsyncInterval/FsyncOff appends
	// leave it nil (fire-and-forget — the channel's FIFO order still
	// lands them in the segment a later rotation covers, and write
	// failures surface through Store.walFailure).
	done chan walRes
}

type walRes struct {
	// seg is the index of the segment the request landed in (for rotate
	// requests: the segment that was closed).
	seg uint64
	err error
}

// committer is the single goroutine owning the active WAL segment. All
// appends, fsyncs, and rotations flow through s.reqs, so file state
// needs no locking; consecutive appends coalesce into one write
// syscall, and requests queued behind one fsync share it — the group
// commit that keeps fsync=always from serializing the sharded ingest
// path request-by-request.
func (s *Store) committer(f *os.File, idx uint64, size int64) {
	defer close(s.commitDone)
	cur, curIdx, curSize := f, idx, size
	headerLen := int64(len(segHeader(s.tag, s.cfg)))
	dirty := false
	// A write, sync, or rotation failure kills the committer's file for
	// good: after a failed fsync the kernel may have dropped the dirty
	// pages, so "retry and report success" would be a durability lie.
	// Every subsequent request fails fast with the original error,
	// which is also published for the fire-and-forget ingest path.
	var dead error
	kill := func(err error) error {
		dead = err
		s.setWALFailure(err)
		if cur != nil {
			_ = cur.Close()
			cur = nil
		}
		return err
	}
	finish := func() {
		if cur == nil {
			return
		}
		// Clean shutdown always syncs: a process exit with fsync=interval
		// or off must still leave the tail durable. A failure here is the
		// last chance to learn the tail never landed, so it is recorded
		// like any other flush failure (Close surfaces it) rather than
		// dropped on the floor.
		if err := cur.Sync(); err != nil {
			_ = kill(err)
			return
		}
		if err := cur.Close(); err != nil {
			s.setWALFailure(err)
		}
		cur = nil
	}
	var (
		pending  = make([]*walReq, 0, 64)
		results  []walRes
		scratch  []byte // coalesced bytes of in-flight append requests
		inFlight []int  // their indices in pending
	)
	// flush writes the coalesced appends in one syscall.
	flush := func() {
		if len(scratch) == 0 {
			return
		}
		t0 := time.Now()
		var (
			n   int
			err error
		)
		for range inFlight {
			if e := fault.Hit(FaultWALAppend); err == nil {
				err = e
			}
		}
		if err == nil {
			n, err = cur.Write(scratch)
		}
		s.ins.walWrite.Observe(time.Since(t0).Seconds())
		s.ins.walAppended.Add(uint64(n))
		curSize += int64(n)
		if err != nil {
			_ = kill(err)
			for _, i := range inFlight {
				results[i] = walRes{err: err}
			}
		} else {
			dirty = true
		}
		scratch, inFlight = scratch[:0], inFlight[:0]
	}
	// timedSync is cur.Sync with its latency observed — the figure that
	// explains ingest tail latency under fsync=always.
	timedSync := func() error {
		t0 := time.Now()
		err := fault.Hit(FaultWALFsync)
		if err == nil {
			err = cur.Sync()
		}
		s.ins.walFsync.Observe(time.Since(t0).Seconds())
		return err
	}
	stopping := false
	for {
		var first *walReq
		if stopping {
			// Drain what is already queued (barrier ordering guarantees no
			// new senders), then exit.
			select {
			case first = <-s.reqs:
			default:
				finish()
				return
			}
		} else {
			select {
			case first = <-s.reqs:
			case <-s.commitStop:
				stopping = true
				continue
			}
		}
		pending = pending[:0]
		pending = append(pending, first)
		// Yield once before draining: under load this lets producers
		// enqueue their requests, so one batch coalesces many appends
		// into one write (and one fsync for the always policy) instead
		// of issuing a syscall per request.
		runtime.Gosched()
	drainLoop:
		for len(pending) < cap(pending) {
			select {
			case r := <-s.reqs:
				pending = append(pending, r)
			default:
				break drainLoop
			}
		}
		needSync := false
		results = results[:0]
		results = append(results, make([]walRes, len(pending))...)
		for i, r := range pending {
			if r.revive {
				// Bring a dead committer back: the failed segment may hold
				// a torn record from the partial write that killed it, so
				// repair its tail first, then resume on a fresh segment.
				// Ordering is safe because Recover holds the snapshot
				// barrier exclusively — no ingest is in flight.
				if dead == nil {
					results[i] = walRes{seg: curIdx}
					continue
				}
				if cur != nil {
					_ = cur.Close()
					cur = nil
				}
				if err := s.repairSegmentTail(curIdx); err != nil {
					results[i] = walRes{err: err}
					continue
				}
				next, nsize, err := s.createSegment(curIdx + 1)
				if err != nil {
					results[i] = walRes{err: err}
					continue
				}
				cur, curIdx, curSize, dirty = next, curIdx+1, nsize, false
				dead = nil
				s.ins.walRevives.Inc()
				results[i] = walRes{seg: curIdx}
				continue
			}
			if dead != nil {
				results[i] = walRes{err: dead}
				continue
			}
			if r.rotate || (r.buf != nil && curSize+int64(len(scratch)) >= s.opts.segmentBytes) {
				flush()
				if dead != nil {
					results[i] = walRes{err: dead}
					continue
				}
				if r.rotate && curSize == headerLen {
					// The active segment holds nothing but its header: rotating
					// would just litter the directory with empty files (a
					// windowed deployment rotates on every bucket seal, ingest
					// or not). Report the newest closed segment, never the
					// active one: a snapshot records the reply as covered, and
					// a covered segment is skipped by recovery and unlinked by
					// prune while appends still go to it.
					results[i] = walRes{seg: curIdx - 1}
					continue
				}
				old := curIdx
				if err := timedSync(); err != nil {
					results[i] = walRes{err: kill(err)}
					continue
				}
				if err := cur.Close(); err != nil {
					cur = nil
					results[i] = walRes{err: kill(err)}
					continue
				}
				cur = nil
				next, nsize, err := s.createSegment(curIdx + 1)
				if err != nil {
					results[i] = walRes{err: kill(err)}
					continue
				}
				cur, curIdx, curSize, dirty = next, curIdx+1, nsize, false
				s.ins.walRotations.Inc()
				if r.rotate {
					results[i] = walRes{seg: old}
					continue
				}
			}
			if r.buf != nil {
				scratch = appendRecords(scratch, r.buf)
				inFlight = append(inFlight, i)
			}
			if r.sync {
				needSync = true
			}
			results[i] = walRes{seg: curIdx}
		}
		flush()
		if needSync && dirty && dead == nil {
			if err := timedSync(); err != nil {
				// An fsync failure poisons every durability claim in the
				// batch: report it to all callers still awaiting success.
				_ = kill(err)
				for i := range results {
					if results[i].err == nil {
						results[i].err = err
					}
				}
			} else {
				dirty = false
			}
		}
		for i, r := range pending {
			if r.done != nil {
				r.done <- results[i]
			}
		}
	}
}

// createSegment opens a fresh segment file with its header written.
func (s *Store) createSegment(idx uint64) (*os.File, int64, error) {
	if err := fault.Hit(FaultWALRotate); err != nil {
		return nil, 0, err
	}
	path := filepath.Join(s.dir, segName(idx))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, 0, err
	}
	header := segHeader(s.tag, s.cfg)
	if _, err := f.Write(header); err != nil {
		f.Close()
		return nil, 0, err
	}
	if s.opts.Fsync != FsyncOff {
		if err := syncDir(s.dir); err != nil {
			f.Close()
			return nil, 0, err
		}
	}
	return f, int64(len(header)), nil
}

// syncDir makes a directory entry change (create, rename, remove)
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
