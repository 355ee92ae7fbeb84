package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/fault"
)

// Snapshot file format. A snapshot is one compacted counter state: the
// deployment identity, the highest WAL segment index it covers, and the
// aggregator's MarshalState blob, all under one trailing CRC:
//
//	"LDPS", version byte, config block,
//	uvarint covered segment index, uvarint report count,
//	[format 2 only: uvarint bucket slot, live slot, live start in Unix
//	 nanoseconds, newest snapshot seq superseded],
//	uvarint state length, state bytes,
//	crc32c of everything above (4 bytes LE)
//
// snap-* files are format 1; a windowed node's bkt-* bucket files are
// format 2. Both are written to a temp file, fsynced, and renamed into
// place, so a crash mid-write never shadows the previous file.

// snapMeta is the in-memory identity of one valid snapshot or bucket
// file. state is only populated transiently during recovery; meta holds
// a bucket file's format-2 fields.
type snapMeta struct {
	seq     uint64
	covered uint64
	n       int
	path    string
	state   []byte
	meta    []uint64
}

// encodeSnapshot builds the file contents: format 1 without meta, a
// format-2 bucket file with it.
func encodeSnapshot(tag encoding.Tag, cfg core.Config, covered uint64, n int, state []byte, meta ...uint64) []byte {
	version := byte(formatV1)
	if len(meta) > 0 {
		version = formatV2
	}
	buf := appendConfig(append([]byte(snapMagic), version), tag, cfg)
	buf = binary.AppendUvarint(buf, covered)
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, v := range meta {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(state)))
	buf = append(buf, state...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeSnapshot validates a file of the given format against the
// deployment and returns its coverage, report count, state blob and, for
// format 2, its meta.
func decodeSnapshot(buf []byte, version byte, tag encoding.Tag, cfg core.Config) (m snapMeta, err error) {
	if len(buf) < len(snapMagic)+1+crcBytes {
		return m, fmt.Errorf("store: snapshot of %d bytes is too short", len(buf))
	}
	body, sum := buf[:len(buf)-crcBytes], binary.LittleEndian.Uint32(buf[len(buf)-crcBytes:])
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return m, fmt.Errorf("store: snapshot checksum %08x, want %08x", got, sum)
	}
	if string(body[:len(snapMagic)]) != snapMagic {
		return m, fmt.Errorf("store: bad snapshot magic %q", body[:len(snapMagic)])
	}
	if body[len(snapMagic)] != version {
		return m, fmt.Errorf("store: snapshot format version %d, want %d", body[len(snapMagic)], version)
	}
	rest, err := checkConfig(body[len(snapMagic)+1:], tag, cfg)
	if err != nil {
		return m, err
	}
	vals := make([]uint64, 2+4*int(version-formatV1)) // format 2 adds four fields
	for i := range vals {
		v, w := binary.Uvarint(rest)
		if w <= 0 {
			return m, fmt.Errorf("store: snapshot header field %d malformed", i)
		}
		vals[i], rest = v, rest[w:]
	}
	if vals[1] > uint64(math.MaxInt) {
		return m, fmt.Errorf("store: snapshot report count %d out of range", vals[1])
	}
	stateLen, w := binary.Uvarint(rest)
	if w <= 0 || stateLen != uint64(len(rest)-w) {
		return m, fmt.Errorf("store: snapshot state length %d does not match %d remaining bytes", stateLen, len(rest)-w)
	}
	return snapMeta{covered: vals[0], n: int(vals[1]), state: rest[w:], meta: vals[2:]}, nil
}

// writeSnapshotFile persists a snapshot or bucket file atomically.
func (s *Store) writeSnapshotFile(name string, contents []byte) (string, error) {
	if err := fault.Hit(FaultSnapshotWrite); err != nil {
		return "", err
	}
	return writeFileAtomic(s.dir, name, contents)
}

// writeFileAtomic persists contents as dir/name and returns its path:
// temp file, fsync, rename, directory fsync. A failure before the rename
// removes the temp file and leaves any earlier dir/name in place.
func writeFileAtomic(dir, name string, contents []byte) (string, error) {
	path := filepath.Join(dir, name)
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	_, err = f.Write(contents)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return path, nil
}
