package store

import (
	"fmt"
	"os"
	"time"

	"ldpmarginals/internal/window"
)

// bucketFile is one bkt-* file: a sealed bucket or, holding no reports,
// a record of the ring's position. live is the live slot it records.
type bucketFile struct {
	slot, covered, live uint64
	path                string
}

// SetWindow makes this the store of a windowed node: each sealed bucket
// of the ring that layout lists is persisted once, as its own file, and
// snapshots hold the live bucket only. Call it after SetSource and after
// restoring the ring; it brings the dir to match the ring, which at
// first start records the ring's position.
func (s *Store) SetWindow(layout func() window.Layout) error {
	s.barrier.Lock()
	defer s.barrier.Unlock()
	s.ring = layout
	return s.syncWindowLocked(false)
}

// RecoveredLayout returns the sealed buckets and the position Open
// recovered (a zero LiveStart when the dir holds no bucket files);
// Recovered then holds the live bucket only.
func (s *Store) RecoveredLayout() window.Layout { return s.layout }

// Cross runs advance, the ring's seal and expiry, under the exclusive
// barrier, so no batch sits between its consume and its WAL append, then
// makes the dir hold the ring's new layout. With the WAL failed the ring
// still advances; Recover persists what it did.
func (s *Store) Cross(advance func() error) error {
	s.barrier.Lock()
	defer s.barrier.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := advance(); err != nil {
		return err
	}
	if err := s.walFailure(); err != nil {
		return fmt.Errorf("store: window crossing: %w", err)
	}
	return s.syncWindowLocked(true)
}

// syncWindowLocked closes the active segment, so every record before it
// belongs to a bucket sealed by now; writes each sealed bucket that has
// no file; records the live slot and start (in an empty file at the slot
// before the live one when no new file carries them); and only then
// deletes the files of buckets that left the ring, the position file a
// newer one superseded, and the segments only they covered. After a
// crossing the live bucket starts empty past the closed segment. A
// failure fails the WAL, so the node degrades and Recover syncs again.
func (s *Store) syncWindowLocked(crossing bool) (err error) {
	l := s.ring()
	sealed := make(map[uint64]bool, len(l.Sealed))
	for _, b := range l.Sealed {
		sealed[b.Slot] = true
	}
	have := make(map[uint64]bool, len(s.bkts))
	pos, todo := false, false
	for _, f := range s.bkts {
		have[f.slot] = true
		pos = pos || f.live == l.LiveSlot
		todo = todo || !sealed[f.slot] && f.live != l.LiveSlot
	}
	for _, b := range l.Sealed {
		todo = todo || !have[b.Slot]
	}
	if pos && !todo {
		return nil
	}
	defer func() {
		if err != nil {
			s.setWALFailure(err)
		}
	}()
	req := &walReq{rotate: true, done: make(chan walRes, 1)}
	s.reqs <- req
	res := <-req.done
	if res.err != nil {
		return fmt.Errorf("store: rotating segment: %w", res.err)
	}
	if crossing && !pos {
		s.liveBase, s.liveSuper = res.seg, s.lastSeq
		s.sinceSnap.Store(0)
	}
	write := func(slot, covered uint64, n int, state []byte) error {
		path, err := s.writeSnapshotFile(bucketName(slot, covered), encodeSnapshot(s.tag, s.cfg, covered, n, state,
			slot, l.LiveSlot, uint64(l.LiveStart.UnixNano()), s.liveSuper))
		if err == nil {
			s.bkts = append(s.bkts, bucketFile{slot: slot, covered: covered, live: l.LiveSlot, path: path})
			pos = true
		}
		return err
	}
	for _, b := range l.Sealed {
		if !have[b.Slot] {
			state, err := b.Agg.MarshalState()
			if err == nil {
				err = write(b.Slot, res.seg, b.Agg.N(), state)
			}
			if err != nil {
				return fmt.Errorf("store: persisting bucket %d: %w", b.Slot, err)
			}
		}
	}
	if !pos {
		if err := write(l.LiveSlot-1, s.liveBase, 0, nil); err != nil {
			return fmt.Errorf("store: recording the window position: %w", err)
		}
	}
	// Segments at or below floor belong only to deleted files older than
	// anything the window still holds.
	need := l.LiveSlot
	if len(l.Sealed) > 0 {
		need = l.Sealed[0].Slot
	}
	var floor uint64
	var drop []string
	kept := s.bkts[:0]
	for _, f := range s.bkts {
		if sealed[f.slot] || f.live == l.LiveSlot {
			kept = append(kept, f)
			continue
		}
		drop = append(drop, f.path)
		if f.slot < need {
			floor = max(floor, f.covered)
		}
	}
	s.bkts = kept // new files are newer than every kept one: still slot-ascending
	return s.removeFiles(drop, floor)
}

// recoverBuckets loads a windowed dir's bucket files into s.layout and
// sets where the live bucket begins: past the segment the newest file
// covers, or from a snapshot newer than the one it supersedes. A file
// failing validation is rebuilt from the segments it covers, which stay
// until its bucket expires; when it is the newest, no snapshot is
// trusted and the live bucket is replayed from segments as well.
func (s *Store) recoverBuckets(segs []uint64) error {
	var prev uint64
	var pos []uint64
	for i := range s.bkts {
		f := &s.bkts[i]
		agg := s.p.NewAggregator()
		buf, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		m, err := decodeSnapshot(buf, formatV2, s.tag, s.cfg)
		if err == nil && m.n > 0 {
			if err = agg.UnmarshalState(m.state); err == nil && agg.N() != m.n {
				err = fmt.Errorf("store: bucket %s declares %d reports, its state holds %d", f.path, m.n, agg.N())
			}
		}
		if err == nil {
			f.live, s.liveSuper = m.meta[1], m.meta[3]
			if pos == nil || f.live >= pos[1] {
				pos = m.meta
			}
		} else {
			s.recStats.BucketsRebuilt++
			agg = s.p.NewAggregator()
			f.live, s.liveSuper = f.slot+1, ^uint64(0)
			for _, idx := range segs {
				if idx > prev && idx <= f.covered {
					if err := s.replaySegment(idx, false, agg); err != nil {
						return err
					}
				}
			}
		}
		if agg.N() > 0 {
			s.layout.Sealed = append(s.layout.Sealed, &window.Bucket{Slot: f.slot, Agg: agg})
			s.recStats.Reports += agg.N()
		}
		prev, s.liveBase = f.covered, f.covered
	}
	if pos != nil {
		s.layout.LiveSlot, s.layout.LiveStart = pos[1], time.Unix(0, int64(pos[2]))
	}
	return nil
}
