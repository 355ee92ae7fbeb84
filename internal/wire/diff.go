package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// State-blob differences. Every state blob is a two-byte header followed
// by minimal uvarints (state.go), whatever the aggregator behind it, so
// two blobs of one component can be walked in lockstep and the newer one
// expressed as the per-position difference from the older: a header
// copy, then one zig-zag varint per value of the newer blob. Counters a
// report did not touch differ by zero, which is what makes the stream
// deflate to a size proportional to the churn. The arithmetic wraps
// modulo 2^64, so shrinking counters (window expiry) and the zig-zag
// coefficients of the Hadamard protocols need no special case; a base
// with fewer values than the newer blob reads as zero past its end, and
// surplus base values are ignored.

// ErrDiffBase marks a diff component that cannot be applied to the blob
// the decoder was offered for it: no blob, another version of it, or a
// result that fails the declared length or checksum. The frame itself is
// intact; a whole-component fetch resolves it.
var ErrDiffBase = errors.New("diff base mismatch")

// ComponentBase is the version label and blob of a component that a diff
// is taken against.
type ComponentBase struct {
	Version uint64
	State   []byte
}

// uvarint is binary.Uvarint with the one- and two-byte cases spelled
// out: nearly every difference is one byte, and a node's merged counters
// pass 127 long before its shards' would have.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	if len(b) > 1 && b[1] < 0x80 {
		return uint64(b[0]&0x7f) | uint64(b[1])<<7, 2
	}
	return binary.Uvarint(b)
}

// appendUvarint is binary.AppendUvarint, likewise.
func appendUvarint(b []byte, v uint64) []byte {
	if v < 1<<7 {
		return append(b, byte(v))
	}
	if v < 1<<14 {
		return append(b, byte(v)|0x80, byte(v>>7))
	}
	return binary.AppendUvarint(b, v)
}

func blobBody(blob []byte) []byte {
	if len(blob) < 2 {
		return nil
	}
	return blob[2:]
}

// diffState expresses next as a difference from base. It reports false
// when next is not a header plus minimal uvarints (applyDiff could not
// reproduce it byte for byte) or base does not parse.
func diffState(base, next []byte) ([]byte, bool) {
	if len(next) < 2 {
		return nil, false
	}
	out := make([]byte, 0, len(next))
	out = append(out, next[:2]...)
	b := blobBody(base)
	for n := next[2:]; len(n) > 0; {
		// One-byte values skip the call: uvarint is too big to inline.
		v, w := uint64(n[0]), 1
		if v >= 0x80 {
			v, w = uvarint(n)
			if w <= 0 || v>>(7*(w-1)) == 0 {
				return nil, false
			}
		}
		n = n[w:]
		// Zero bytes read: the base has run out, and reads as zero.
		var old uint64
		if len(b) > 0 {
			bw := 1
			if old = uint64(b[0]); old >= 0x80 {
				if old, bw = uvarint(b); bw <= 0 {
					return nil, false
				}
			}
			b = b[bw:]
		}
		d := int64(v - old)
		out = appendUvarint(out, uint64(d<<1)^uint64(d>>63)) // zig-zag, as binary.AppendVarint
	}
	return out, true
}

// applyDiff rebuilds the canonical blob of rawLen bytes that diff
// describes on top of base. A malformed diff stream is a plain error; a
// result that does not come out at rawLen bytes wraps ErrDiffBase, as
// the wrong base is what produces one from an intact frame. The caller
// names the component in front of either.
func applyDiff(base, diff []byte, rawLen uint64) ([]byte, error) {
	if len(diff) < 2 {
		return nil, fmt.Errorf("state diff of %d bytes has no header", len(diff))
	}
	out := make([]byte, 0, rawLen)
	out = append(out, diff[:2]...)
	b := blobBody(base)
	for d := diff[2:]; len(d) > 0; {
		ux, w := uint64(d[0]), 1
		if ux >= 0x80 {
			if ux, w = uvarint(d); w <= 0 {
				return nil, errors.New("state diff value malformed")
			}
		}
		d = d[w:]
		// The base read of diffState, spelled out in both for speed.
		var old uint64
		if len(b) > 0 {
			bw := 1
			if old = uint64(b[0]); old >= 0x80 {
				if old, bw = uvarint(b); bw <= 0 {
					return nil, fmt.Errorf("base blob malformed: %w", ErrDiffBase)
				}
			}
			b = b[bw:]
		}
		out = appendUvarint(out, old+(ux>>1^-(ux&1))) // zig-zag undone, as binary.Varint
		if uint64(len(out)) > rawLen {
			break
		}
	}
	if uint64(len(out)) != rawLen {
		return nil, fmt.Errorf("state diff does not rebuild the declared %d bytes: %w", rawLen, ErrDiffBase)
	}
	return out, nil
}
