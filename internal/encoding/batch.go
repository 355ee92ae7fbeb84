package encoding

import (
	"fmt"

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
// replay both go through it), and it is one loop. The reference
// semantics are frame-at-a-time: wire.NextFrame splits a frame off,
// Unmarshal parses it, and the tags must agree. The loop runs exactly
// that for the first frame, whose tag fixes the batch's wire shape —
// what follows the tag byte:
//
//	index              InpPS
//	index, sign        InpHT
//	beta, index        MargPS
//	beta, index, sign  MargHT, InpHTCMS
//	(general)          InpRR, MargRR (bitmaps)
//
// For the four uvarint shapes, every later frame that has the common
// form — a one-byte length prefix, the batch's tag, uvarints of one to
// three bytes each (minimal or not), a sign byte of 0 or 1 where the
// shape has one, and not a byte more — is read inline, with no call per
// report, and written to reps[n], ends[n] in place. Any frame that is
// not of that form (a longer prefix or varint, another tag, a malformed
// or truncated frame, the frame that would exceed maxReports) is handed,
// whole, to the reference decode for that one frame, as is every frame
// of a general-shape batch. So the inline path only ever accepts, and
// only what the reference would accept with the same result; every
// rejection, and its error text, is the reference's own. That is the
// contract: the set of byte strings accepted, the reports and offsets
// decoded from them, and the errors for the rest are those of a
// frame-at-a-time decoder — malformed-but-decodable reports are the
// attack surface of an LDP aggregator, so the fast path may not widen
// it by a single byte string. FuzzBatchDecodeMatchesFrames holds the
// decoder to it against a reference written in the test.

// MaxFrameBytes bounds a single frame within a batch (the largest legal
// report is InpRR at d=20: 2^20 bits = 128 KiB, plus framing).
const MaxFrameBytes = 1 << 18

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
// is overwritten and per-report payloads (the Bits bitmaps of the RR
// protocols) are freshly decoded, so a consumer that retained an
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
		// Inline path: the frame is buf[off+1 : off+1+size], its first
		// byte the tag, the rest p.
		if size := int(buf[off]); sh != shapeGeneral && (maxReports <= 0 || n < maxReports) &&
			size >= 2 && size < 0x80 && off+1+size <= len(buf) && Tag(buf[off+1]) == tag {
			p := buf[off+2 : off+1+size]
			var (
				beta, idx uint64
				sign      int8
				ok        = true
			)
			if sh&shapeBeta != 0 {
				v, w := uvarint3(p)
				beta, p, ok = v, p[w:], w > 0
			}
			if ok {
				v, w := uvarint3(p)
				idx, p, ok = v, p[w:], w > 0
			}
			if ok && sh&shapeSign != 0 {
				if ok = len(p) == 1 && p[0] <= 1; ok {
					sign, p = int8(p[0])*2-1, nil
				}
			}
			if ok && len(p) == 0 {
				off += 1 + size
				r := &reps[n]
				r.Beta, r.Index, r.Sign = beta, idx, sign
				// A pointer store costs a write-barrier check per report;
				// a reused slot of these shapes already holds nil.
				if r.Bits != nil {
					r.Bits = nil
				}
				ends[n] = off
				n++
				continue
			}
		}
		// Reference path, in the reference's order of checks.
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

// uvarint3 reads a uvarint of one to three bytes (21 bits: every index
// and marginal mask up to d = 21) off the front of b, accepting
// non-minimal forms as binary.Uvarint does. w == 0 means b does not
// start with one — it is empty, cut short, or the varint is longer —
// and the caller falls back to the reference decode.
func uvarint3(b []byte) (v uint64, w int) {
	if len(b) >= 1 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	// From here b[0], and then b[1], carry the continuation bit: 0x80 at
	// place value 1, then 1<<7, subtracted as one constant. (Written to
	// fit the compiler's inlining budget; keep it there.)
	if len(b) >= 2 && b[1] < 0x80 {
		return uint64(b[0]) + uint64(b[1])<<7 - 0x80, 2
	}
	if len(b) >= 3 && b[2] < 0x80 {
		return uint64(b[0]) + uint64(b[1])<<7 + uint64(b[2])<<14 - 0x4080, 3
	}
	return 0, 0
}
