package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
//	sparse: header copy, uvarint m (the non-zero differences), then bits,
//	        first in the low end of each byte: the m gaps (the zero
//	        differences skipped before each) Rice coded under one
//	        parameter, then the m zig-zag differences less one, either
//	        Rice coded under a parameter of their own or, when most are
//	        one value, as that value, the count of the others, the runs
//	        of it before each of the others, and the others; zero bits
//	        up to the byte. The zeros after the last difference are
//	        implied by the state's declared length. It is never deflated.
//
// Deflate spends about 19 bits on each non-zero of a dense stream that is
// 98 % zeros; the gaps of the sparse one cost what the positions carry
// (about 7.5 bits each at that churn), a thousand "+1"s cost twenty bytes
// between them, and nothing the size of the state is built or deflated on
// either side. Where most counters moved, the gaps are dead weight and
// the dense stream is the smaller one.

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
	// Sparse, on a decoded component, says that the diff arrived sparse.
	// The encoder does not read it.
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
			// An unmoved value is taken to start a run of them, which is
			// stepped over eight bytes at a time: wherever the two cursors
			// are in their blobs, the bytes that are the same on both
			// sides, up to the last that ends a value, are values that did
			// not move. A zero byte after a continued one is a value not
			// minimally written, left for the walk above to refuse.
			same, run := 0, 0
			for len(n)-same >= 8 && len(b)-same >= 8 {
				wn := binary.LittleEndian.Uint64(n[same:])
				differ := wn ^ binary.LittleEndian.Uint64(b[same:])
				if differ|wn&continues == 0 { // eight one-byte values
					same, run = same+8, run+8
					continue
				}
				ends := ^wn & continues & (1<<(bits.TrailingZeros64(differ)&^7) - 1)
				size := 8 - bits.LeadingZeros64(ends)/8
				zeros := (wn - continues>>7) & ^wn & continues
				if ends == 0 || zeros&(wn&continues<<8)&(1<<(8*size)-1) != 0 {
					break
				}
				same, run = same+size, run+bits.OnesCount64(ends)
				if differ != 0 {
					break
				}
			}
			n, b, gap = n[same:], b[same:], gap+1+uint64(run)
			d.vals += run
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

// gapsPay reports whether the sparse stream is worth writing: as varints,
// its gaps take fewer bytes than the zeros of the dense stream they stand
// for. Where they do not, most values moved and the dense stream wins.
func (d *stateDiff) gapsPay() bool {
	return uvarintLen(uint64(d.moved))+len(d.gaps) < d.vals-d.moved
}

func (d *stateDiff) denseLen() int { return 2 + d.vals - d.moved + len(d.diffs) }

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Rice codes of the sparse stream. A value v under parameter k is v>>k
// one bits, a zero bit, then the low k bits of v; a quotient of
// riceEscape or more is riceEscape one bits, the bit length of v less one
// in six bits, then v without its top bit, so no code is longer than 93
// bits and a hostile run of ones ends at the 24th. A parameter is six
// bits and at most riceParamMax, the most that a quotient below the
// escape can be shifted back by.
const (
	riceEscape   = 24
	riceParamMax = 59
)

// riceLen is the size in bits of v's code under k.
func riceLen(v uint64, k uint) uint64 {
	if q := v >> k; q < riceEscape {
		return q + 1 + uint64(k)
	}
	return riceEscape + 5 + uint64(bits.Len64(v))
}

// riceParam returns the parameter under which vs take the fewest bits,
// the lowest of several, and how many they take. Past the bit length of
// the largest value, every code only grows.
func riceParam(vs []uint64) (best uint, size uint64) {
	var top uint64
	for _, v := range vs {
		top |= v
	}
	size = math.MaxUint64
	for k := range min(uint(bits.Len64(top)), riceParamMax) + 1 {
		var s uint64
		for _, v := range vs {
			s += riceLen(v, k)
		}
		if s < size {
			best, size = k, s
		}
	}
	return best, size
}

// bitWriter appends bits to out, the first in the low end of each byte.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint // bits in acc, under 32 between calls
}

func (w *bitWriter) put(v uint64, n uint) {
	if n > 32 {
		w.put(v&(1<<32-1), 32)
		v, n = v>>32, n-32
	}
	w.acc |= v << w.n
	if w.n += n; w.n >= 32 {
		w.out = binary.LittleEndian.AppendUint32(w.out, uint32(w.acc))
		w.acc, w.n = w.acc>>32, w.n-32
	}
}

func (w *bitWriter) rice(v uint64, k uint) {
	if q := uint(v >> k); q < riceEscape {
		w.put(1<<q-1, q+1)
		w.put(v&(1<<k-1), k)
		return
	}
	n := uint(bits.Len64(v)) - 1
	w.put(1<<riceEscape-1, riceEscape)
	w.put(uint64(n), 6)
	w.put(v&(1<<n-1), n)
}

// section writes a parameter and vs under it.
func (w *bitWriter) section(vs []uint64, k uint) {
	w.put(uint64(k), 6)
	for _, v := range vs {
		w.rice(v, k)
	}
}

// flush writes out the bits in hand, and zero bits up to a whole byte.
func (w *bitWriter) flush() []byte {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w.out
}

// appendSparse writes the sparse stream after out. Every choice in it is
// settled by exact size, the earlier of two the same, so a diff has one
// encoding.
func (d *stateDiff) appendSparse(out []byte) []byte {
	out = append(out, d.header[:]...)
	out = binary.AppendUvarint(out, uint64(d.moved))
	if d.moved == 0 {
		return out
	}
	w := bitWriter{out: out}
	vs := make([]uint64, d.moved)
	// read fills vs with the uvarints of b, each less less.
	read := func(b []byte, less uint64) {
		for i := range vs {
			v, n := uvarint(b)
			b, vs[i] = b[n:], v-less
		}
	}
	read(d.gaps, 0)
	k, _ := riceParam(vs)
	w.section(vs, k)

	// The run form is tried around the value a majority vote leaves
	// standing: that of more than half the differences if there is one
	// ("+1", where few reports met in a counter), and the form only pays
	// around such a value. The values beside it close the hole it leaves.
	read(d.diffs, 1)
	var (
		mode, run    uint64
		votes        int
		runs, others []uint64
	)
	for _, v := range vs {
		if votes == 0 {
			mode = v
		}
		if v == mode {
			votes++
		} else {
			votes--
		}
	}
	for _, v := range vs {
		switch {
		case v == mode:
			run++
			continue
		case v > mode:
			v--
		}
		runs, others, run = append(runs, run), append(others, v), 0
	}
	k, plain := riceParam(vs)
	kr, runBits := riceParam(runs)
	ko, otherBits := riceParam(others)
	if n := uint64(len(others)); 6+plain <= riceLen(mode, 0)+riceLen(n, 0)+6+runBits+6+otherBits {
		w.put(0, 1)
		w.section(vs, k)
	} else {
		w.put(1, 1)
		w.rice(mode, 0)
		w.rice(n, 0)
		w.section(runs, kr)
		w.section(others, ko)
	}
	return w.flush()
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

// continues masks the continuation bits of eight varint bytes.
const continues = 0x8080808080808080

// skipVarints returns how many bytes of b its first n varints take, and
// how many of the n it does not have: past its end a base reads as zero.
// A varint ends at its one byte without the continuation bit, so eight
// bytes are counted at a time.
func skipVarints(b []byte, n uint64) (size int, short uint64) {
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

// bitBuf reads the bits of a sparse stream at cursors its caller keeps,
// so that the sections of the stream can be read side by side. Past the
// end it reads zeros, which end any code; the caller checks where its
// last cursor stopped. bad is set by what the writer would not have
// written.
type bitBuf struct {
	buf []byte
	bad bool
}

// word returns the 57 or more bits at pos.
func (b *bitBuf) word(pos uint64) uint64 {
	i := pos >> 3
	if i+8 <= uint64(len(b.buf)) {
		return binary.LittleEndian.Uint64(b.buf[i:]) >> (pos & 7)
	}
	var last [8]byte
	if i < uint64(len(b.buf)) {
		copy(last[:], b.buf[i:])
	}
	return binary.LittleEndian.Uint64(last[:]) >> (pos & 7)
}

func (b *bitBuf) take(pos *uint64, n uint) uint64 {
	if n > 32 {
		return b.take(pos, 32) | b.take(pos, n-32)<<32
	}
	v := b.word(*pos) & (1<<n - 1)
	*pos += uint64(n)
	return v
}

func (b *bitBuf) param(pos *uint64) uint {
	k := uint(b.take(pos, 6))
	b.bad = b.bad || k > riceParamMax
	return k
}

func (b *bitBuf) rice(pos *uint64, k uint) uint64 {
	q := uint(bits.TrailingZeros64(^b.word(*pos)))
	if q < riceEscape {
		*pos += uint64(q + 1)
		return uint64(q)<<k | b.take(pos, k)
	}
	*pos += riceEscape
	n := uint(b.take(pos, 6))
	v := 1<<n | b.take(pos, n)
	// An escape for a quotient that did not need one is not canonical.
	b.bad = b.bad || v>>k < riceEscape
	return v
}

// inc undoes a decrement the writer never made to zero: a difference of
// zero, like a value beside the mode that is the mode, has no code.
func (b *bitBuf) inc(v uint64) uint64 {
	b.bad = b.bad || v+1 == 0
	return v + 1
}

var errSparseStream = errors.New("sparse diff stream malformed")

// applySparseDiff is applyDiff for a sparse diff. The base varints under
// a gap did not move and are copied across as bytes; only the moved
// values are decoded, added to and encoded again, and nothing is
// allocated but the rawLen bytes of the result. On top of applyDiff's
// checks, a stream the encoder would not have written is refused: more
// differences than its bits or the declared length have room for, a
// parameter out of range, an escape the value did not need, more values
// beside the mode than values, runs that leave some of them unread, pad
// bits set, bytes after the pad.
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
	in := bitBuf{buf: diff[2+w:]}
	// Every difference is a gap of at least a bit, and a value of at least
	// a byte in the state.
	if moved > 8*uint64(len(in.buf)) || moved > rawLen-2 {
		return nil, fmt.Errorf("sparse diff announces %d differences in %d bytes, for a state of %d", moved, len(in.buf), rawLen)
	}
	// The sections are read side by side, each at a cursor of its own: the
	// gaps, in the run form the runs of the mode, and the values (those
	// beside the mode, in the run form: others of them, which in the plain
	// form is all). A section starts where a skim of the one before it
	// stops, and the last must stop where the stream does.
	var (
		gapAt, runAt, valAt uint64
		kGap, kRun, kVal    uint
		runForm             bool
		mode, run           uint64
		others              = moved
	)
	if moved > 0 {
		kGap = in.param(&gapAt)
		valAt = gapAt
		for range moved {
			in.rice(&valAt, kGap)
		}
		if runForm = in.take(&valAt, 1) == 1; runForm {
			mode, others = in.rice(&valAt, 0), in.rice(&valAt, 0)
			kRun = in.param(&valAt)
			runAt = valAt
			for range min(others, moved) {
				in.rice(&valAt, kRun)
			}
		}
		kVal = in.param(&valAt)
	}
	if in.bad || others > moved {
		return nil, errSparseStream
	}
	// nextRun is how many times the mode comes before the next value
	// beside it: never in the plain form, for ever after the last.
	nextRun := func() uint64 {
		switch {
		case !runForm:
			return 0
		case others == 0:
			return math.MaxUint64
		}
		return in.rice(&runAt, kRun)
	}
	run = nextRun()
	// value returns the next zig-zag difference.
	value := func() uint64 {
		if run > 0 {
			run--
			return in.inc(mode)
		}
		v := in.rice(&valAt, kVal)
		if runForm && v >= mode {
			v = in.inc(v)
		}
		others--
		run = nextRun()
		return in.inc(v)
	}

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
		if !across(in.rice(&gapAt, kGap)) {
			return nil, errDiffLength(rawLen)
		}
		ux := value()
		if in.bad {
			return nil, errSparseStream
		}
		old, bw := uint64(0), 0
		if len(b) > 0 {
			if old, bw = uvarint(b); bw <= 0 {
				return nil, fmt.Errorf("base blob malformed: %w", ErrDiffBase)
			}
			b = b[bw:]
		}
		v := old + (ux>>1 ^ -(ux & 1))
		if uint64(uvarintLen(v)) > rawLen-uint64(len(out)) {
			return nil, errDiffLength(rawLen)
		}
		out = appendUvarint(out, v)
	}
	if others != 0 || (valAt+7)/8 != uint64(len(in.buf)) || in.word(valAt) != 0 {
		return nil, errSparseStream
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
