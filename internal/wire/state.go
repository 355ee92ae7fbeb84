package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// State blob layout. Every aggregator state opens with a kind byte
// naming the implementation and a version byte, followed by
// kind-specific fields written through StateEncoder. The encoding is
// canonical — a given logical state has exactly one byte serialization —
// so Marshal(Unmarshal(b)) == b and equal states compare byte-equal.

// StateEncoder builds a canonical state blob. The zero value is not
// usable; construct with NewStateEncoder.
type StateEncoder struct {
	buf []byte
}

// NewStateEncoder starts a state blob with its kind and version header.
func NewStateEncoder(kind, version byte) *StateEncoder {
	return &StateEncoder{buf: []byte{kind, version}}
}

// Uvarint appends one unsigned value.
func (e *StateEncoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends one signed value (zig-zag).
func (e *StateEncoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Uint64s appends a count-prefixed unsigned slice.
func (e *StateEncoder) Uint64s(s []uint64) {
	e.Uvarint(uint64(len(s)))
	for _, v := range s {
		e.Uvarint(v)
	}
}

// Int64s appends a count-prefixed signed slice.
func (e *StateEncoder) Int64s(s []int64) {
	e.Uvarint(uint64(len(s)))
	for _, v := range s {
		e.Varint(v)
	}
}

// Counts appends a count-prefixed slice of non-negative ints — the
// shape of per-marginal user counters.
func (e *StateEncoder) Counts(s []int) {
	e.Uvarint(uint64(len(s)))
	for _, v := range s {
		e.Uvarint(uint64(v))
	}
}

// Bytes returns the finished blob.
func (e *StateEncoder) Bytes() []byte { return e.buf }

// StateDecoder reads a state blob with a sticky error: after the first
// failure every read returns the zero value and Finish reports the
// failure, so aggregator codecs read all fields straight-line and check
// once.
type StateDecoder struct {
	buf []byte
	err error
}

// NewStateDecoder checks the kind/version header and positions the
// decoder after it.
func NewStateDecoder(data []byte, kind, version byte) (*StateDecoder, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("wire: state blob of %d bytes has no header", len(data))
	}
	if data[0] != kind {
		return nil, fmt.Errorf("wire: state kind %d, want %d", data[0], kind)
	}
	if data[1] != version {
		return nil, fmt.Errorf("wire: state version %d, want %d", data[1], version)
	}
	return &StateDecoder{buf: data[2:]}, nil
}

func (d *StateDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Uvarint reads one unsigned value, rejecting non-minimal encodings so
// that every accepted blob is the one canonical serialization of its
// state (MarshalState after UnmarshalState is byte-identity).
func (d *StateDecoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, w := binary.Uvarint(d.buf)
	if w <= 0 {
		d.fail("wire: truncated or malformed uvarint")
		return 0
	}
	if w > 1 && v>>(7*(w-1)) == 0 {
		d.fail("wire: non-minimal uvarint")
		return 0
	}
	d.buf = d.buf[w:]
	return v
}

// Varint reads one signed (zig-zag) value; like Uvarint it rejects
// non-minimal encodings.
func (d *StateDecoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads an unsigned value that must fit in a non-negative int —
// the shape of report and cell counters.
func (d *StateDecoder) Count() int {
	v := d.Uvarint()
	if v > uint64(math.MaxInt) {
		d.fail("wire: count %d overflows int", v)
		return 0
	}
	return int(v)
}

// CountsInto reads a count-prefixed slice of non-negative ints of
// exactly len(dst) entries into dst; on failure dst is left partly
// written and Finish reports why.
func (d *StateDecoder) CountsInto(dst []int) {
	for i := range dst[:d.sliceLen(len(dst))] {
		dst[i] = d.Count()
	}
}

// sliceLen reads a count prefix and validates it against expect: a
// non-negative expect requires that exact length (the caller knows the
// aggregator's geometry), while expect < 0 accepts any length that the
// remaining bytes could possibly hold (each element is at least one
// byte), bounding allocation on corrupt input.
func (d *StateDecoder) sliceLen(expect int) int {
	n := d.Count()
	if d.err != nil {
		return 0
	}
	if expect >= 0 && n != expect {
		d.fail("wire: slice of %d entries, want %d", n, expect)
		return 0
	}
	if n > len(d.buf) {
		d.fail("wire: slice of %d entries exceeds %d remaining bytes", n, len(d.buf))
		return 0
	}
	return n
}

// Uint64s reads a count-prefixed unsigned slice; see sliceLen for the
// expect contract.
func (d *StateDecoder) Uint64s(expect int) []uint64 {
	n := d.sliceLen(expect)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.Uvarint()
	}
	return out
}

// Uint64sInto is CountsInto for unsigned values: the decode of a
// counter plane whose geometry the caller knows, into the caller's
// buffer.
func (d *StateDecoder) Uint64sInto(dst []uint64) {
	for i := range dst[:d.sliceLen(len(dst))] {
		dst[i] = d.Uvarint()
	}
}

// Int64sInto is CountsInto for signed (zig-zag) values.
func (d *StateDecoder) Int64sInto(dst []int64) {
	for i := range dst[:d.sliceLen(len(dst))] {
		dst[i] = d.Varint()
	}
}

// Finish reports the first read failure, or an error if undecoded bytes
// remain — a canonical blob is consumed exactly.
func (d *StateDecoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing state bytes", len(d.buf))
	}
	return nil
}
