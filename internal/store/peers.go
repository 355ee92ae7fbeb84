package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/wire"
)

// Coordinator peer-state snapshot. A coordinator's durable artifact is
// deliberately NOT the merged fleet state: edges re-serve their full
// canonical state on every pull, so persisting a merged blob would
// double-count every peer that answers after a restart. What makes a
// coordinator restart exact is the per-peer decomposition: the file
// holds, for every peer with held state, the full component frame that
// state was accepted as (a PeerFrame), which re-pulls then replace
// idempotently. Persisting the *components* (not a pre-merged blob) also
// preserves the delta bases: after a restart the coordinator still knows
// each peer's acknowledged version label and per-component vector, so
// the first pull of a surviving peer resumes as a delta instead of a
// full transfer. The file layout:
//
//	"LDPP", format version byte, config block (shared with WAL/snapshots),
//	uvarint peer count,
//	repeat: uvarint url length, url bytes,
//	        length-prefixed componentized full frame
//	        (wire.EncodeComponentFrame), the one /state serves
//	crc32c of everything above (4 bytes LE)
//
// written atomically (temp file, fsync, rename) like counter snapshots.
// Files of the formats before (1: single-blob frames, 2: the frame of
// format 1) fail to load with ErrPeerSnapshotFormat.

const peersMagic = "LDPP"

// peersFormat is the peer-snapshot layout version; WAL segments and
// counter snapshots remain at formatV1.
const peersFormat = 3

// peersFile is the coordinator snapshot's name inside the cluster
// directory. It deliberately doesn't match the wal-/snap- patterns, so
// a directory shared with an edge store would not confuse recovery.
const peersFile = "cluster.peers"

// ErrPeerSnapshotFormat marks a peer snapshot written by an older build.
// Its peers are not lost: they are re-pulled once the file is removed.
var ErrPeerSnapshotFormat = errors.New("store: " + peersFile + " written by an older build; remove it and the coordinator re-pulls its peers")

// peerSnapshotMaxRaw bounds the total decompressed component bytes of
// one persisted peer frame. The file is CRC-guarded and written only by
// this process from already-validated states, so the bound is a
// generous corruption backstop, not an admission limit.
const peerSnapshotMaxRaw = int64(1) << 32

// PeerFrame is one peer's last accepted state, as persisted by a
// coordinator: the full frame of its held components (sorted by id),
// labeled by the peer's node id and the version the next pull
// acknowledges.
type PeerFrame struct {
	// URL is the configured peer base URL the state was pulled from.
	URL   string
	Frame wire.ComponentFrame
}

// SavePeerStates atomically persists a coordinator's per-peer states to
// dir (creating it if needed), pinned to the deployment identity.
func SavePeerStates(dir string, p core.Protocol, peers []PeerFrame) error {
	tag, err := encoding.TagForProtocol(p.Name())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf := appendConfig(append([]byte(peersMagic), peersFormat), tag, p.Config())
	buf = binary.AppendUvarint(buf, uint64(len(peers)))
	for _, pf := range peers {
		frame, err := wire.EncodeComponentFrame(pf.Frame)
		if err != nil {
			return fmt.Errorf("store: peer %s: %w", pf.URL, err)
		}
		buf = binary.AppendUvarint(buf, uint64(len(pf.URL)))
		buf = append(buf, pf.URL...)
		buf = wire.AppendFrame(buf, frame)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))

	_, err = writeFileAtomic(dir, peersFile, buf)
	return err
}

// LoadPeerStates recovers the peer states persisted in dir. A missing
// file is an empty fleet, not an error; a corrupt or foreign file fails
// so a misconfigured coordinator cannot silently serve the wrong
// deployment's counters.
func LoadPeerStates(dir string, p core.Protocol) ([]PeerFrame, error) {
	tag, err := encoding.TagForProtocol(p.Name())
	if err != nil {
		return nil, err
	}
	buf, err := os.ReadFile(filepath.Join(dir, peersFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(buf) < len(peersMagic)+1+crcBytes {
		return nil, fmt.Errorf("store: peer snapshot of %d bytes is too short", len(buf))
	}
	body, sum := buf[:len(buf)-crcBytes], binary.LittleEndian.Uint32(buf[len(buf)-crcBytes:])
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return nil, fmt.Errorf("store: peer snapshot checksum %08x, want %08x", got, sum)
	}
	if string(body[:len(peersMagic)]) != peersMagic {
		return nil, fmt.Errorf("store: bad peer snapshot magic %q", body[:len(peersMagic)])
	}
	switch format := body[len(peersMagic)]; {
	case format < peersFormat:
		return nil, fmt.Errorf("%w (format %d)", ErrPeerSnapshotFormat, format)
	case format != peersFormat:
		return nil, fmt.Errorf("store: peer snapshot format version %d, want %d", format, peersFormat)
	}
	rest, err := checkConfig(body[len(peersMagic)+1:], tag, p.Config())
	if err != nil {
		return nil, err
	}
	count, w := binary.Uvarint(rest)
	if w <= 0 || count > uint64(len(rest)) {
		return nil, fmt.Errorf("store: peer snapshot count malformed")
	}
	rest = rest[w:]
	peers := make([]PeerFrame, 0, count)
	for i := uint64(0); i < count; i++ {
		urlLen, w := binary.Uvarint(rest)
		if w <= 0 || urlLen > uint64(len(rest)-w) {
			return nil, fmt.Errorf("store: peer %d url malformed", i)
		}
		rest = rest[w:]
		url := string(rest[:urlLen])
		rest = rest[urlLen:]
		frame, next, err := wire.NextFrame(rest, 0)
		if err != nil {
			return nil, fmt.Errorf("store: peer %d (%s): %w", i, url, err)
		}
		cf, err := wire.DecodeComponentFrame(frame, peerSnapshotMaxRaw)
		if err != nil {
			return nil, fmt.Errorf("store: peer %d (%s): %w", i, url, err)
		}
		if cf.Delta {
			return nil, fmt.Errorf("store: peer %d (%s): snapshot holds a delta frame", i, url)
		}
		peers = append(peers, PeerFrame{URL: url, Frame: cf})
		rest = next
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("store: peer snapshot has %d trailing bytes", len(rest))
	}
	return peers, nil
}
