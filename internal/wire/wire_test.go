package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{0xAB}, 300)}
	var buf []byte
	for _, f := range frames {
		buf = AppendFrame(buf, f)
	}
	for i, want := range frames {
		frame, rest, err := NextFrame(buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(frame, want) {
			t.Fatalf("frame %d: got %v want %v", i, frame, want)
		}
		buf = rest
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestNextFrameTruncation(t *testing.T) {
	whole := AppendFrame(nil, []byte("durable"))
	for cut := 0; cut < len(whole); cut++ {
		_, _, err := NextFrame(whole[:cut], 0)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestNextFrameOversized(t *testing.T) {
	buf := AppendFrame(nil, bytes.Repeat([]byte{1}, 64))
	if _, _, err := NextFrame(buf, 16); err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("oversized frame: err = %v, want non-truncation error", err)
	}
	if _, _, err := NextFrame(buf, 64); err != nil {
		t.Fatalf("frame at the limit rejected: %v", err)
	}
}

func TestNextFrameMalformedLength(t *testing.T) {
	// An 11-byte maximal varint overflows uint64: structural corruption,
	// not truncation.
	buf := bytes.Repeat([]byte{0xFF}, 11)
	if _, _, err := NextFrame(buf, 0); err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("overflowing length: err = %v, want non-truncation error", err)
	}
}

func TestStateRoundTrip(t *testing.T) {
	e := NewStateEncoder(7, 1)
	e.Uvarint(42)
	e.Varint(-17)
	e.Uint64s([]uint64{0, 1, 1 << 60})
	e.Int64s([]int64{-5, 0, 5})
	blob := e.Bytes()

	d, err := NewStateDecoder(blob, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.Uvarint(); v != 42 {
		t.Fatalf("uvarint = %d", v)
	}
	if v := d.Varint(); v != -17 {
		t.Fatalf("varint = %d", v)
	}
	if got := d.Uint64s(3); len(got) != 3 || got[2] != 1<<60 {
		t.Fatalf("uint64s = %v", got)
	}
	got := make([]int64, 3)
	if d.Int64sInto(got); got[0] != -5 || got[2] != 5 {
		t.Fatalf("int64s = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	// The Into readers take exactly len(dst) entries, no other prefix.
	d, _ = NewStateDecoder(blob, 7, 1)
	if d.Uint64sInto(make([]uint64, 2)); d.Finish() == nil {
		t.Fatal("a 2-entry destination accepted a different count prefix")
	}

	// Re-encoding the decoded values is byte-identical (canonical form).
	e2 := NewStateEncoder(7, 1)
	e2.Uvarint(42)
	e2.Varint(-17)
	e2.Uint64s([]uint64{0, 1, 1 << 60})
	e2.Int64s([]int64{-5, 0, 5})
	if !bytes.Equal(blob, e2.Bytes()) {
		t.Fatal("re-encoding differs")
	}
}

func TestStateDecoderRejectsHeaderMismatch(t *testing.T) {
	blob := NewStateEncoder(3, 1).Bytes()
	if _, err := NewStateDecoder(blob, 4, 1); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, err := NewStateDecoder(blob, 3, 2); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := NewStateDecoder([]byte{3}, 3, 1); err == nil {
		t.Fatal("headerless blob accepted")
	}
}

func TestStateDecoderBoundsSliceAllocation(t *testing.T) {
	// A count prefix claiming more entries than bytes remain must fail
	// before allocating.
	e := NewStateEncoder(1, 1)
	e.Uvarint(1 << 40)
	d, err := NewStateDecoder(e.Bytes(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Uint64s(-1); got != nil {
		t.Fatalf("oversized slice decoded: %d entries", len(got))
	}
	if err := d.Finish(); err == nil {
		t.Fatal("oversized slice count not reported")
	}
}

func TestStateDecoderTrailingBytes(t *testing.T) {
	e := NewStateEncoder(1, 1)
	e.Uvarint(9)
	blob := append(e.Bytes(), 0xFF)
	d, err := NewStateDecoder(blob, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = d.Uvarint()
	if err := d.Finish(); err == nil {
		t.Fatal("trailing bytes not reported")
	}
}
