package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// LDPX, the single-blob state-exchange frame of builds before the
// componentized one (delta.go): one canonical Aggregator.MarshalState
// blob with the exporting node's id, version label and report count.
//
//	"LDPX", format version byte,
//	uvarint node-id length, node-id bytes,
//	uvarint state version, uvarint report count,
//	uvarint state length, state bytes,
//	crc32c of everything above (4 bytes LE)
//
// No node serves or reads it any more: DecodeComponentFrame refuses it
// with ErrFrameFormat. EncodeStateFrame stays only for the benchmark's
// ledger (bench/layers.go, the wire.legacy_* rows), until the benchmark
// drops those rows.

const (
	exchangeMagic   = "LDPX"
	exchangeVersion = 1
	exchangeCRCLen  = 4

	// MaxNodeIDLen bounds the exporter-chosen node id, keeping frame
	// headers small and hostile ids from forcing large allocations.
	MaxNodeIDLen = 256
)

var exchangeCRC = crc32.MakeTable(crc32.Castagnoli)

// StateFrame is one node's state as an LDPX frame carries it; only the
// benchmark's ledger builds one.
type StateFrame struct {
	NodeID  string
	Version uint64
	N       int
	State   []byte
}

// EncodeStateFrame serializes one LDPX frame, for the benchmark's ledger.
func EncodeStateFrame(f StateFrame) ([]byte, error) {
	if len(f.NodeID) == 0 || len(f.NodeID) > MaxNodeIDLen {
		return nil, fmt.Errorf("wire: node id of %d bytes (want 1..%d)", len(f.NodeID), MaxNodeIDLen)
	}
	if f.N < 0 {
		return nil, fmt.Errorf("wire: negative report count %d", f.N)
	}
	buf := make([]byte, 0, len(exchangeMagic)+1+2*binary.MaxVarintLen64+len(f.NodeID)+len(f.State)+32)
	buf = append(buf, exchangeMagic...)
	buf = append(buf, exchangeVersion)
	buf = binary.AppendUvarint(buf, uint64(len(f.NodeID)))
	buf = append(buf, f.NodeID...)
	buf = binary.AppendUvarint(buf, f.Version)
	buf = binary.AppendUvarint(buf, uint64(f.N))
	buf = binary.AppendUvarint(buf, uint64(len(f.State)))
	buf = append(buf, f.State...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, exchangeCRC)), nil
}
