package encoding

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/wire"
)

// Batch wire format. A batch is a concatenation of length-prefixed
// report frames (the shared wire framing, which the durable WAL's
// segment format reuses record-for-record):
//
//	repeat: uvarint frame length, then that many bytes of a Marshal frame
//
// Every frame in a batch must carry the same protocol tag; a deployment
// collects exactly one protocol, so a mixed batch is malformed. The
// framing carries no count header — the batch ends at the end of the
// buffer — so producers can stream frames into a request body without
// knowing the final count up front.
//
// Decoding. UnmarshalBatchEndsInto is the only batch decoder (the other
// Unmarshal* entry points call it; the /report/batch handler and WAL
// replay both go through it). The reference semantics are
// frame-at-a-time: wire.NextFrame splits a frame off, Unmarshal parses
// it, and the tags must agree. The decoder runs exactly that for the
// first frame, whose tag fixes the batch's wire shape — what follows the
// tag byte:
//
//	index              InpPS
//	index, sign        InpHT
//	beta, index        MargPS
//	beta, index, sign  MargHT, InpHTCMS
//	(general)          MargRR (bitmap)
//
// For the four uvarint shapes, every later frame of the common form — a
// one-byte length prefix, the batch's tag, uvarints of one to three
// bytes each (minimal or not), a sign byte of 0 or 1 where the shape
// has one, and not a byte more — is decoded by a loop of the shape's
// own, with no call per report, into reps[n], ends[n] in place:
//
//   - One load reads the frame: the eight bytes after the length
//     prefix, as one little-endian word, hold the tag and the whole
//     payload (the longest common-form frame, beta, index and sign, is
//     exactly eight). The bytes past the frame — the next frames — are
//     masked off. Where fewer than eight bytes remain, the last frames
//     of a body, the remaining bytes are gathered into a zeroed word
//     instead, and the frame must end within them.
//   - The length byte gives the varint widths: size - 1 for an index
//     alone, size - 2 for an index and a sign; in the beta shapes the
//     beta ends at its first clear continuation bit and the index takes
//     the rest. Each width must be 1 to 3 bytes.
//   - One mask and one compare check the tag byte, the index's
//     continuation bits — set on every byte but its last — and, in the
//     signed shapes, that the sign byte has no bit but the lowest. The
//     values are the seven-bit groups of the masked word, packed.
//
// Any frame that is not of that form (a longer prefix or varint, another
// tag, a malformed or truncated frame, the frame that would exceed
// maxReports) is handed, whole, to the reference decode for that one
// frame, as is every frame of a general-shape batch; the loop then
// resumes. So the word loops only ever accept, and only what the
// reference would accept with the same result; every rejection, and its
// error text, is the reference's own. That is the contract: the set of
// byte strings accepted, the reports and offsets decoded from them, and
// the errors for the rest are those of a frame-at-a-time decoder —
// malformed-but-decodable reports are the attack surface of an LDP
// aggregator, so the fast path may not widen it by a single byte string.
// FuzzBatchDecodeMatchesFrames holds the decoder to it against a
// reference written in the test, with seeds that put every kind of odd
// frame both mid-body and last behind 40 frames of each inline shape.

// MaxFrameBytes bounds a single frame within a batch. The largest frame
// a served protocol sends is MargRR's at k=16: a 2^16-bit bitmap, 8 KiB,
// plus its tag, beta and word count.
const MaxFrameBytes = 1 << 14

// AppendFrame appends one length-prefixed frame to dst and returns the
// extended buffer.
func AppendFrame(dst, frame []byte) []byte {
	return wire.AppendFrame(dst, frame)
}

// MarshalBatch serializes a batch of reports of the named protocol into
// the length-prefixed batch format.
func MarshalBatch(name string, reps []core.Report) ([]byte, error) {
	var buf []byte
	for i := range reps {
		frame, err := Marshal(name, reps[i])
		if err != nil {
			return nil, fmt.Errorf("encoding: batch report %d: %w", i, err)
		}
		buf = AppendFrame(buf, frame)
	}
	return buf, nil
}

// UnmarshalBatch parses a length-prefixed batch of report frames,
// requiring every frame to carry the same protocol tag. maxReports
// bounds the number of frames (0 means no bound) so a hostile body
// cannot force unbounded decoding work beyond its own size.
func UnmarshalBatch(buf []byte, maxReports int) (Tag, []core.Report, error) {
	tag, reps, _, err := UnmarshalBatchEnds(buf, maxReports)
	return tag, reps, err
}

// UnmarshalBatchEnds is UnmarshalBatch returning, alongside the decoded
// reports, the byte offset just past each report's frame: buf[:ends[i]]
// is itself a valid batch of the first i+1 reports, and
// buf[ends[i]:ends[j]] one of reports i+1..j. The durable ingestion
// path uses these bounds to append the accepted prefix of a request
// body to the write-ahead log verbatim — the record payload is the
// already-validated wire bytes, with no re-marshal and no per-frame
// re-framing.
func UnmarshalBatchEnds(buf []byte, maxReports int) (Tag, []core.Report, []int, error) {
	return UnmarshalBatchEndsInto(buf, maxReports, nil, nil)
}

// UnmarshalBatchEndsInto is UnmarshalBatchEnds decoding into the
// caller's (typically pooled) report and offset slices, so a
// steady-state ingest path stops allocating the per-request decode
// buffers. Only the slice headers are reused: every field of a record
// is overwritten and per-report payloads (MargRR's Bits bitmap) are
// freshly decoded, so a consumer that retained an
// earlier batch's reports is unaffected. See the top of this file for
// how it decodes and what it promises to accept.
func UnmarshalBatchEndsInto(buf []byte, maxReports int, reps []core.Report, ends []int) (Tag, []core.Report, []int, error) {
	var (
		tag Tag
		sh  shape
		n   int // reports decoded so far
		off int // bytes of buf consumed so far
	)
	reps, ends = reps[:cap(reps)], ends[:cap(ends)]
	for off < len(buf) {
		if n == len(reps) {
			reps = append(reps, core.Report{})
			reps = reps[:cap(reps)]
		}
		if n == len(ends) {
			ends = append(ends, 0)
			ends = ends[:cap(ends)]
		}
		if sh != shapeGeneral {
			limit := min(len(reps), len(ends))
			if maxReports > 0 {
				limit = min(limit, maxReports)
			}
			if n < limit {
				n, off = sh.decode(buf, off, tag, reps[:limit], ends[:limit], n)
				if off == len(buf) || n == len(reps) || n == len(ends) {
					continue // done, or out of room: grow and go on
				}
			}
		}
		// Reference path for one frame, in the reference's order of checks.
		frame, rest, err := wire.NextFrame(buf[off:], MaxFrameBytes)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("encoding: batch frame %d: %w", n, err)
		}
		if maxReports > 0 && n == maxReports {
			return 0, nil, nil, fmt.Errorf("encoding: batch exceeds %d reports", maxReports)
		}
		t, rep, err := Unmarshal(frame)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("encoding: batch frame %d: %w", n, err)
		}
		if n == 0 {
			tag, sh = t, shapeOf(t)
		} else if t != tag {
			return 0, nil, nil, fmt.Errorf("encoding: batch mixes tags %d and %d", tag, t)
		}
		off = len(buf) - len(rest)
		reps[n], ends[n] = rep, off
		n++
	}
	if n == 0 {
		return 0, nil, nil, fmt.Errorf("encoding: empty batch")
	}
	return tag, reps[:n], ends[:n], nil
}

// shape is what follows the tag byte in the frames the batch decoder
// reads inline: an index uvarint, optionally preceded by a beta uvarint
// and optionally followed by a sign byte. shapeGeneral has no inline
// form.
type shape uint8

const (
	shapeIndex shape = 1 << iota
	shapeBeta
	shapeSign
	shapeGeneral shape = 0
)

func shapeOf(tag Tag) shape {
	switch tag {
	case TagInpPS:
		return shapeIndex
	case TagInpHT:
		return shapeIndex | shapeSign
	case TagMargPS:
		return shapeIndex | shapeBeta
	case TagMargHT, TagHCMS:
		return shapeIndex | shapeBeta | shapeSign
	}
	return shapeGeneral
}

// decode reads common-form frames of shape sh and tag from buf[off:]
// into reps[n:] and ends[n:], for as long as there are such frames and
// room for them, and returns how far it got. Each shape has its own
// loop.
func (sh shape) decode(buf []byte, off int, tag Tag, reps []core.Report, ends []int, n int) (int, int) {
	switch sh {
	case shapeIndex:
		return decodeIndex(buf, off, tag, reps, ends, n)
	case shapeIndex | shapeSign:
		return decodeIndexSign(buf, off, tag, reps, ends, n)
	case shapeIndex | shapeBeta:
		return decodeBetaIndex(buf, off, tag, reps, ends, n)
	}
	return decodeBetaIndexSign(buf, off, tag, reps, ends, n)
}

// contBits masks the continuation bit of every byte of a word.
const contBits = 0x8080808080808080

// wordAfter is the eight bytes after buf[off], read as one
// little-endian word: a frame's tag in the low byte, then its payload,
// then whatever follows in buf (the next frames), or zeros past its
// end; callers mask off what is not the frame's.
func wordAfter(buf []byte, off int) uint64 {
	if off+9 <= len(buf) {
		return binary.LittleEndian.Uint64(buf[off+1 : off+9])
	}
	return tailWord(buf[off+1:])
}

// tailWord is the little-endian word of the fewer than eight bytes of
// tail, zero-padded: the load for the last frames of a body, assembled
// byte by byte so that the loops around it make no call.
func tailWord(tail []byte) uint64 {
	var w uint64
	for i := len(tail) - 1; i >= 0; i-- {
		w = w<<8 | uint64(tail[i])
	}
	return w
}

// bytesMask covers the low b (0 to 7) bytes of a word.
func bytesMask(b uint) uint64 { return 1<<(8*b&63) - 1 }

// frameOK reports whether the frame word w has tag in byte 0, a uvarint
// of exactly b-a bytes in bytes a to b-1 — the continuation bit set on
// all but the last — and, when signed, a sign byte of 0 or 1 in byte b:
// one mask and one compare. The bytes before a are the caller's to
// check; b-a must be 1 to 3 and b at most 7.
func frameOK(w uint64, tag Tag, a, b uint, signed bool) bool {
	cont := (bytesMask(b) &^ bytesMask(a)) & contBits
	check := 0xff | cont
	if signed {
		check |= 0xfe << (8 * b & 63)
	}
	return w&check == uint64(tag)|cont&bytesMask(b-1)
}

// uvarintAt is the value of the uvarint in bytes a to b-1 of w, at most
// three bytes: the seven value bits of each byte, packed.
func uvarintAt(w uint64, a, b uint) uint64 {
	p := w & bytesMask(b) >> (8 * a & 63)
	return p&0x7f | p>>1&0x3f80 | p>>2&0x1fc000
}

// signAt is the report sign of the 0-or-1 sign byte b of w.
func signAt(w uint64, b uint) int8 { return int8(w>>(8*b&63)&1)*2 - 1 }

// betaEnd is where the beta uvarint that starts at byte 1 of w ends:
// one past its first byte with a clear continuation bit, or 5 when
// bytes 1 to 3 all have theirs set (a beta of more than three bytes).
func betaEnd(w uint64) uint {
	return uint(bits.TrailingZeros64(^w&0x80808000|1<<39))/8 + 1
}

// setReport writes a decoded report of the uvarint shapes into r.
func setReport(r *core.Report, beta, idx uint64, sign int8) {
	r.Beta, r.Index, r.Sign = beta, idx, sign
	// A pointer store costs a write-barrier check per report; a reused
	// slot of these shapes already holds nil.
	if r.Bits != nil {
		r.Bits = nil
	}
}

// decodeIndex is the InpPS loop: the payload is one uvarint, so its
// width is size - 1.
func decodeIndex(buf []byte, off int, tag Tag, reps []core.Report, ends []int, n int) (int, int) {
	ends = ends[:len(reps)]
	for n < len(reps) && off < len(buf) {
		size, w := uint(buf[off]), wordAfter(buf, off)
		if size-2 > 2 || off+1+int(size) > len(buf) || !frameOK(w, tag, 1, size, false) {
			break
		}
		off += 1 + int(size)
		setReport(&reps[n], 0, uvarintAt(w, 1, size), 0)
		ends[n] = off
		n++
	}
	return n, off
}

// decodeIndexSign is the InpHT loop: a uvarint of size - 2 bytes, then
// the sign byte.
func decodeIndexSign(buf []byte, off int, tag Tag, reps []core.Report, ends []int, n int) (int, int) {
	ends = ends[:len(reps)]
	for n < len(reps) && off < len(buf) {
		size, w := uint(buf[off]), wordAfter(buf, off)
		if size-3 > 2 || off+1+int(size) > len(buf) || !frameOK(w, tag, 1, size-1, true) {
			break
		}
		off += 1 + int(size)
		setReport(&reps[n], 0, uvarintAt(w, 1, size-1), signAt(w, size-1))
		ends[n] = off
		n++
	}
	return n, off
}

// decodeBetaIndex is the MargPS loop: two uvarints, the beta up to its
// first clear continuation bit and the index the rest of the frame.
func decodeBetaIndex(buf []byte, off int, tag Tag, reps []core.Report, ends []int, n int) (int, int) {
	ends = ends[:len(reps)]
	for n < len(reps) && off < len(buf) {
		size, w := uint(buf[off]), wordAfter(buf, off)
		a := betaEnd(w)
		if a > 4 || size-a-1 > 2 || off+1+int(size) > len(buf) || !frameOK(w, tag, a, size, false) {
			break
		}
		off += 1 + int(size)
		setReport(&reps[n], uvarintAt(w, 1, a), uvarintAt(w, a, size), 0)
		ends[n] = off
		n++
	}
	return n, off
}

// decodeBetaIndexSign is the MargHT and InpHTCMS loop: two uvarints as
// in decodeBetaIndex, then the sign byte.
func decodeBetaIndexSign(buf []byte, off int, tag Tag, reps []core.Report, ends []int, n int) (int, int) {
	ends = ends[:len(reps)]
	for n < len(reps) && off < len(buf) {
		size, w := uint(buf[off]), wordAfter(buf, off)
		a := betaEnd(w)
		if a > 4 || size-a-2 > 2 || off+1+int(size) > len(buf) || !frameOK(w, tag, a, size-1, true) {
			break
		}
		off += 1 + int(size)
		setReport(&reps[n], uvarintAt(w, 1, a), uvarintAt(w, a, size-1), signAt(w, size-1))
		ends[n] = off
		n++
	}
	return n, off
}
