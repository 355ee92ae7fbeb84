package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// State-blob differences. Every state blob is a two-byte header followed
// by minimal uvarints (state.go), whatever the aggregator behind it, so
// two blobs of one component can be walked in lockstep and the newer one
// expressed as the per-position difference from the older. The
// arithmetic wraps modulo 2^64, so shrinking counters (window expiry)
// and the zig-zag coefficients of the Hadamard protocols need no special
// case; a base with fewer values than the newer blob reads as zero past
// its end, and surplus base values are ignored. One walk, two streams:
//
//	dense:  header copy, then one zig-zag varint per value of the newer
//	        blob. Counters a report did not touch differ by zero, and the
//	        zeros are left to deflate.
//	sparse: header copy, uvarint m (the non-zero differences), m uvarint
//	        gaps (the zero differences skipped before each), then the m
//	        zig-zag non-zero differences; the zeros after the last one
//	        are implied by the state's declared length.
//
// Deflate spends about 19 bits on each non-zero of a dense stream that is
// 98 % zeros; the gaps of the sparse one cost what the positions carry
// (about 9 bits each at that churn), and nothing the size of the state
// is built or deflated on either side. Where most counters moved, the
// gaps are dead weight and the dense stream is the smaller one.

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
	// Sparse, on a base to encode against, says that the puller decodes
	// sparse diffs (it said so in the handshake); without it the encoder
	// ships dense ones only. On a decoded component it says that the
	// diff arrived sparse.
	Sparse bool
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

// stateDiff is what one lockstep walk of two blobs finds: the non-zero
// differences and the runs of zeros between them. Both diff streams are
// written from it, so its size follows the churn, not the state.
type stateDiff struct {
	header [2]byte
	vals   int    // values in the newer blob
	moved  int    // of them, how many differ from the base
	gaps   []byte // per moved value, the uvarint count of zeros before it
	diffs  []byte // per moved value, its zig-zag difference
}

// diffState expresses next as a difference from base. It reports false
// when next is not a header plus minimal uvarints (applyDiff could not
// reproduce it byte for byte) or base does not parse.
func diffState(base, next []byte) (stateDiff, bool) {
	var d stateDiff
	if len(next) < 2 {
		return d, false
	}
	copy(d.header[:], next)
	b := blobBody(base)
	gap := uint64(0)
	for n := next[2:]; len(n) > 0; d.vals++ {
		// One-byte values skip the call: uvarint is too big to inline.
		v, w := uint64(n[0]), 1
		if v >= 0x80 {
			v, w = uvarint(n)
			if w <= 0 || v>>(7*(w-1)) == 0 {
				return d, false
			}
		}
		n = n[w:]
		// Zero bytes read: the base has run out, and reads as zero.
		var old uint64
		if len(b) > 0 {
			bw := 1
			if old = uint64(b[0]); old >= 0x80 {
				if old, bw = uvarint(b); bw <= 0 {
					return d, false
				}
			}
			b = b[bw:]
		}
		if v == old {
			gap++
			continue
		}
		delta := int64(v - old)
		d.gaps = appendUvarint(d.gaps, gap)
		d.diffs = appendUvarint(d.diffs, uint64(delta<<1)^uint64(delta>>63)) // zig-zag, as binary.AppendVarint
		d.moved++
		gap = 0
	}
	return d, true
}

// sparseCertain is the share of a state's values below which its diff
// ships sparse without the dense stream being built and deflated to
// compare: with under an eighth of the values moved, the dense stream is
// seven parts zeros that deflate must spend bits to step over, and the
// sparse one has already left them out.
const sparseCertain = 8

// clearlySparse reports whether so few values moved that only the sparse
// stream is worth writing.
func (d *stateDiff) clearlySparse() bool { return d.moved*sparseCertain <= d.vals }

// sparseLen is the length of the sparse stream, denseLen of the dense
// one. A sparse stream no shorter than the dense one before packing is
// not worth packing: the gaps outnumber the zeros they stand for.
func (d *stateDiff) sparseLen() int {
	return 2 + uvarintLen(uint64(d.moved)) + len(d.gaps) + len(d.diffs)
}

func (d *stateDiff) denseLen() int { return 2 + d.vals - d.moved + len(d.diffs) }

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// sparse writes the sparse stream.
func (d *stateDiff) sparse() []byte {
	out := make([]byte, 0, d.sparseLen())
	out = append(out, d.header[:]...)
	out = binary.AppendUvarint(out, uint64(d.moved))
	out = append(out, d.gaps...)
	return append(out, d.diffs...)
}

// dense writes the dense stream: every zero the walk skipped is put
// back as a byte.
func (d *stateDiff) dense() []byte {
	out := make([]byte, d.denseLen())
	copy(out, d.header[:])
	at, gaps, diffs := 2, d.gaps, d.diffs
	for range d.moved {
		gap, w := uvarint(gaps)
		gaps = gaps[w:]
		at += int(gap)
		_, w = uvarint(diffs)
		at += copy(out[at:], diffs[:w])
		diffs = diffs[w:]
	}
	return out
}

// errDiffLength is a rebuilt blob that is not the declared size: what
// the wrong base produces from an intact frame.
func errDiffLength(rawLen uint64) error {
	return fmt.Errorf("state diff does not rebuild the declared %d bytes: %w", rawLen, ErrDiffBase)
}

// applyDiff rebuilds the canonical blob of rawLen bytes that a dense
// diff describes on top of base. A malformed diff stream is a plain
// error; a result that does not come out at rawLen bytes wraps
// ErrDiffBase, as the wrong base is what produces one from an intact
// frame. The caller names the component in front of either.
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
		return nil, errDiffLength(rawLen)
	}
	return out, nil
}

// skipVarints returns how many bytes of b its first n varints take, and
// how many of the n it does not have: past its end a base reads as zero.
// A varint ends at its one byte without the continuation bit, so eight
// bytes are counted at a time.
func skipVarints(b []byte, n uint64) (size int, short uint64) {
	const continues = 0x8080808080808080
	for ; len(b)-size >= 8; size += 8 {
		// The word holding the n-th end is walked bytewise: bytes after
		// that end belong to the next value.
		ends := uint64(bits.OnesCount64(^binary.LittleEndian.Uint64(b[size:]) & continues))
		if ends >= n {
			break
		}
		n -= ends
	}
	for ; n > 0 && size < len(b); size++ {
		if b[size] < 0x80 {
			n--
		}
	}
	return size, n
}

// applySparseDiff is applyDiff for a sparse diff. The base varints under
// a gap did not move and are copied across as bytes; only the moved
// values are decoded, added to and encoded again. On top of applyDiff's
// checks, a stream the encoder would not have written is refused: more
// differences announced than bytes follow, a difference of zero, bytes
// after the last difference.
func applySparseDiff(base, diff []byte, rawLen uint64) ([]byte, error) {
	if len(diff) < 2 {
		return nil, fmt.Errorf("state diff of %d bytes has no header", len(diff))
	}
	if rawLen < 2 {
		return nil, errDiffLength(rawLen)
	}
	moved, w := binary.Uvarint(diff[2:])
	if w <= 0 {
		return nil, errors.New("sparse diff count malformed")
	}
	gaps := diff[2+w:]
	// Every difference is a gap and a value of at least a byte each.
	if moved > uint64(len(gaps))/2 {
		return nil, fmt.Errorf("sparse diff announces %d differences in %d bytes", moved, len(gaps))
	}
	size, short := skipVarints(gaps, moved)
	if short > 0 {
		return nil, errors.New("sparse diff gaps truncated")
	}
	gaps, vals := gaps[:size], gaps[size:]

	out := make([]byte, 0, rawLen)
	out = append(out, diff[:2]...)
	b := blobBody(base)
	// across carries n untouched values over: base bytes, then a zero for
	// each value the base does not have. It refuses to pass rawLen, which
	// is also what keeps a hostile gap from sizing the output.
	across := func(n uint64) bool {
		size, short := skipVarints(b, n)
		if room := rawLen - uint64(len(out)); short > room || uint64(size) > room-short {
			return false
		}
		out = append(out, b[:size]...)
		out = append(out, make([]byte, short)...)
		b = b[size:]
		return true
	}
	for range moved {
		gap, gw := uvarint(gaps)
		ux, w := uvarint(vals)
		if gw <= 0 || w <= 0 {
			return nil, errors.New("sparse diff value malformed")
		}
		gaps = gaps[gw:]
		if !across(gap) {
			return nil, errDiffLength(rawLen)
		}
		if ux == 0 {
			return nil, errors.New("sparse diff carries a zero difference")
		}
		vals = vals[w:]
		old, bw := uint64(0), 0
		if len(b) > 0 {
			if old, bw = uvarint(b); bw <= 0 {
				return nil, fmt.Errorf("base blob malformed: %w", ErrDiffBase)
			}
			b = b[bw:]
		}
		out = appendUvarint(out, old+(ux>>1^-(ux&1)))
		if uint64(len(out)) > rawLen {
			return nil, errDiffLength(rawLen)
		}
	}
	if len(vals) != 0 {
		return nil, fmt.Errorf("sparse diff has %d bytes after its last difference", len(vals))
	}
	// The implied tail: base values up to the declared length, zeros past
	// the base. It must end on a value boundary.
	rest := rawLen - uint64(len(out))
	if n := min(rest, uint64(len(b))); n > 0 {
		if b[n-1] >= 0x80 {
			return nil, errDiffLength(rawLen)
		}
		out = append(out, b[:n]...)
		rest -= n
	}
	return append(out, make([]byte, rest)...), nil
}
