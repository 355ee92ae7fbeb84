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
// coordinator restart exact is the per-peer decomposition — the latest
// (url, node id, version, components) tuple for every configured peer —
// which re-pulls then replace idempotently. Persisting the *components*
// (not a pre-merged blob) also preserves the delta bases: after a
// restart the coordinator still knows each peer's acknowledged version
// label and per-component vector, so the first pull of a surviving peer
// resumes as a delta instead of a full transfer. The file layout:
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

// PeerState is one peer's last accepted pull, as persisted by a
// coordinator.
type PeerState struct {
	// URL is the configured peer base URL the state was pulled from.
	URL string
	// NodeID, Version, and N label the accepted state; Version is the
	// delta base the next pull acknowledges.
	NodeID  string
	Version uint64
	N       int
	// Components are the named state components the peer's state
	// decomposes into, sorted by ID.
	Components []PeerComponent
}

// PeerComponent is one named component of a persisted peer state.
type PeerComponent struct {
	// ID names the component fleet-wide (wire.StateComponent.ID).
	ID string
	// Version labels this component's content.
	Version uint64
	// N is the component's report count.
	N int
	// State is the component's canonical aggregator state blob.
	State []byte
}

// SavePeerStates atomically persists a coordinator's per-peer states to
// dir (creating it if needed), pinned to the deployment identity.
func SavePeerStates(dir string, p core.Protocol, peers []PeerState) error {
	tag, err := encoding.TagForProtocol(p.Name())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf := appendConfig(append([]byte(peersMagic), peersFormat), tag, p.Config())
	buf = binary.AppendUvarint(buf, uint64(len(peers)))
	for _, ps := range peers {
		cf := wire.ComponentFrame{NodeID: ps.NodeID, Version: ps.Version, N: ps.N}
		for _, c := range ps.Components {
			cf.Components = append(cf.Components, wire.StateComponent{
				ID: c.ID, Version: c.Version, N: c.N, State: c.State,
			})
		}
		frame, err := wire.EncodeComponentFrame(cf)
		if err != nil {
			return fmt.Errorf("store: peer %s: %w", ps.URL, err)
		}
		buf = binary.AppendUvarint(buf, uint64(len(ps.URL)))
		buf = append(buf, ps.URL...)
		buf = wire.AppendFrame(buf, frame)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))

	path := filepath.Join(dir, peersFile)
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// LoadPeerStates recovers the peer states persisted in dir. A missing
// file is an empty fleet, not an error; a corrupt or foreign file fails
// so a misconfigured coordinator cannot silently serve the wrong
// deployment's counters.
func LoadPeerStates(dir string, p core.Protocol) ([]PeerState, error) {
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
	peers := make([]PeerState, 0, count)
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
		ps := PeerState{URL: url, NodeID: cf.NodeID, Version: cf.Version, N: cf.N}
		for _, c := range cf.Components {
			ps.Components = append(ps.Components, PeerComponent{ID: c.ID, Version: c.Version, N: c.N, State: c.State})
		}
		peers = append(peers, ps)
		rest = next
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("store: peer snapshot has %d trailing bytes", len(rest))
	}
	return peers, nil
}
