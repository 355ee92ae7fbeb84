package encoding

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/wire"
)

// corpusReports holds one representative report per wire tag, so the
// fuzzers start from every branch of the format.
func corpusReports(t testing.TB) map[string]core.Report {
	t.Helper()
	return map[string]core.Report{
		"InpRR":    {Bits: []uint64{0xdeadbeef, 0x0102030405060708}},
		"InpPS":    {Index: 173},
		"InpHT":    {Index: 0b1001, Sign: -1},
		"MargRR":   {Beta: 0b110, Bits: []uint64{0b1011}},
		"MargPS":   {Beta: 0b101, Index: 2},
		"MargHT":   {Beta: 0b11, Index: 3, Sign: 1},
		"InpHTCMS": {Beta: 7, Index: 129, Sign: 1},
	}
}

// FuzzMarshalRoundTrip asserts that Unmarshal never panics on arbitrary
// frames, and that any frame it accepts round-trips: re-marshaling the
// decoded report yields a frame that decodes to the same report. This is
// the property the batch ingestion endpoint relies on — a malformed
// frame is an error, never a crash or a silently different report.
func FuzzMarshalRoundTrip(f *testing.F) {
	for name, rep := range corpusReports(f) {
		frame, err := Marshal(name, rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// Malformed seeds: unknown tag, truncated varint, trailing bytes, and
	// InpEM and InpOLH frames, whose retired tags old WALs still carry.
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01})
	f.Add([]byte{byte(TagInpHT), 0x80})
	f.Add([]byte{byte(TagInpPS), 0x01, 0x02})
	f.Add([]byte{7, 0x05})
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 0x03})
	f.Fuzz(func(t *testing.T, frame []byte) {
		tag, rep, err := Unmarshal(frame)
		if err != nil {
			return
		}
		name, err := ProtocolForTag(tag)
		if err != nil {
			t.Fatalf("accepted frame has unmappable tag %d", tag)
		}
		out, err := Marshal(name, rep)
		if err != nil {
			t.Fatalf("re-marshal of accepted report failed: %v", err)
		}
		tag2, rep2, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if tag2 != tag || !reflect.DeepEqual(rep, rep2) {
			t.Fatalf("round trip changed report: %+v -> %+v", rep, rep2)
		}
	})
}

// FuzzUnmarshalBatch asserts that batch parsing never panics and that
// accepted batches round-trip through MarshalBatch.
func FuzzUnmarshalBatch(f *testing.F) {
	for name, rep := range corpusReports(f) {
		batch, err := MarshalBatch(name, []core.Report{rep, rep})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(batch)
	}
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x01})                            // length prefix longer than body
	f.Add([]byte{0xff, 0xff, 0xff})                      // runaway length varint
	f.Add([]byte{0x02, 7, 0x05, 0x02, 7, 0x05})          // retired InpEM tag
	f.Add([]byte{0x0a, 8, 1, 2, 3, 4, 5, 6, 7, 8, 0x03}) // retired InpOLH tag
	f.Fuzz(func(t *testing.T, buf []byte) {
		tag, reps, err := UnmarshalBatch(buf, 1<<12)
		if err != nil {
			return
		}
		if len(reps) == 0 {
			t.Fatal("accepted batch decoded to zero reports")
		}
		name, err := ProtocolForTag(tag)
		if err != nil {
			t.Fatalf("accepted batch has unmappable tag %d", tag)
		}
		out, err := MarshalBatch(name, reps)
		if err != nil {
			t.Fatalf("re-marshal of accepted batch failed: %v", err)
		}
		tag2, reps2, err := UnmarshalBatch(out, 0)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if tag2 != tag || !reflect.DeepEqual(reps, reps2) {
			t.Fatal("batch round trip changed reports")
		}
	})
}

// framesReference is the frame-at-a-time batch decoder the batch
// decoder's contract is stated against: split one frame off with
// wire.NextFrame, parse it with Unmarshal, require the tags to agree.
// It is kept here, apart from the production decoder, so that a change
// to the production loop cannot move both sides of the comparison.
func framesReference(buf []byte, maxReports int) (Tag, []core.Report, []int, error) {
	var (
		tag  Tag
		reps []core.Report
		ends []int
	)
	total := len(buf)
	for len(buf) > 0 {
		frame, rest, err := wire.NextFrame(buf, MaxFrameBytes)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("encoding: batch frame %d: %w", len(reps), err)
		}
		if maxReports > 0 && len(reps) == maxReports {
			return 0, nil, nil, fmt.Errorf("encoding: batch exceeds %d reports", maxReports)
		}
		t, rep, err := Unmarshal(frame)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("encoding: batch frame %d: %w", len(reps), err)
		}
		buf = rest
		if len(reps) == 0 {
			tag = t
		} else if t != tag {
			return 0, nil, nil, fmt.Errorf("encoding: batch mixes tags %d and %d", tag, t)
		}
		reps = append(reps, rep)
		ends = append(ends, total-len(buf))
	}
	if len(reps) == 0 {
		return 0, nil, nil, fmt.Errorf("encoding: empty batch")
	}
	return tag, reps, ends, nil
}

// checkMatchesFrames fails unless the batch decoder and the reference
// agree on buf: accept or reject (with the same error text), tag, every
// report and every end offset.
func checkMatchesFrames(t *testing.T, buf []byte, maxReports int, reps []core.Report, ends []int) {
	t.Helper()
	wantTag, wantReps, wantEnds, wantErr := framesReference(buf, maxReports)
	tag, reps, ends, err := UnmarshalBatchEndsInto(buf, maxReports, reps, ends)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("batch decoder error %v, frame-at-a-time reference %v (body %x, maxReports %d)", err, wantErr, buf, maxReports)
	}
	if errors.Is(err, wire.ErrTruncated) != errors.Is(wantErr, wire.ErrTruncated) {
		t.Fatalf("errors disagree on wire.ErrTruncated: %v vs %v", err, wantErr)
	}
	if tag != wantTag || !reflect.DeepEqual(reps, wantReps) || !reflect.DeepEqual(ends, wantEnds) {
		t.Fatalf("batch decoder: tag %d reports %+v ends %v\nreference:     tag %d reports %+v ends %v\n(body %x)",
			tag, reps, ends, wantTag, wantReps, wantEnds, buf)
	}
}

// FuzzBatchDecodeMatchesFrames holds UnmarshalBatchEndsInto to its
// contract (see batch.go): for any input it accepts and rejects exactly
// what a frame-at-a-time decoder does, with the same tag, reports, end
// offsets and error text — decoding both into fresh slices and into
// dirty reused ones, whose stale Bits must not survive.
func FuzzBatchDecodeMatchesFrames(f *testing.F) {
	const maxReports = 4
	batch := func(name string, reps ...core.Report) []byte {
		buf, err := MarshalBatch(name, reps)
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	corpus := corpusReports(f)
	for name, rep := range corpus { // all seven tags
		f.Add(batch(name, rep, rep, rep))
	}
	ps, ht := corpus["InpPS"], corpus["InpHT"]
	f.Add(batch("InpPS", ps, ps, ps, ps))                                                  // maxReports hit exactly
	f.Add(batch("InpPS", ps, ps, ps, ps, ps))                                              // and exceeded
	f.Add(append(batch("InpPS", ps), 0x03, byte(TagInpPS), 0x85, 0x00))                    // non-minimal varint
	f.Add(append(batch("InpPS", ps), 0x82, 0x00, byte(TagInpPS), 0x05))                    // 2-byte length prefix
	f.Add(append([]byte{0x82, 0x00, byte(TagInpPS), 0x05}, batch("InpPS", ps)...))         // on the first frame
	f.Add(append(batch("InpPS", ps), batch("InpHT", ht)...))                               // mixed tags
	f.Add(append(batch("InpPS", ps), 0x03, byte(TagInpPS), 0x05, 0x00))                    // trailing byte in a frame
	f.Add(append(batch("InpHT", ht), 0x03, byte(TagInpHT), 0x05, 0x02))                    // sign byte not 0 or 1
	f.Add(append(batch("InpHT", ht), 0x02, byte(TagInpHT), 0x05))                          // missing sign byte
	f.Add(append(batch("MargPS", corpus["MargPS"]), 0x02, byte(TagMargPS), 0x05))          // missing second varint
	f.Add(append(batch("InpPS", ps), 0x05, byte(TagInpPS), 0x80, 0x80, 0x80, 0x01))        // 4-byte varint
	f.Add(append(batch("InpPS", ps), 0x03, byte(TagInpPS), 0x80))                          // frame body cut short
	f.Add(append(batch("InpPS", ps), 0x02, byte(TagInpPS), 0x80))                          // varint cut short by the frame
	f.Add(append(batch("InpPS", ps), 0x80))                                                // length prefix cut short
	f.Add(append(batch("InpPS", ps), 0xff, 0xff, 0x7f))                                    // over MaxFrameBytes
	f.Add(append(batch("InpPS", ps), 0x00))                                                // empty frame
	f.Add(append(batch("InpPS", ps), 0x01, byte(TagInpPS)))                                // tag only
	f.Add(append(batch("InpPS", ps), 0x02, 0x63, 0x01))                                    // unknown tag
	f.Add(append(batch("InpPS", ps), append([]byte{0x81, 0x01}, make([]byte, 129)...)...)) // a >=128-byte frame
	f.Add([]byte{0x02, 7, 0x05, 0x02, 7, 0x05})                                            // retired InpEM tag
	f.Add(append(batch("InpPS", ps), 0x02, 8, 0x05))                                       // retired InpOLH tag
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		checkMatchesFrames(t, buf, maxReports, nil, nil)
		checkMatchesFrames(t, buf, 0, nil, nil)
		dirty := make([]core.Report, 3)
		for i := range dirty {
			dirty[i] = core.Report{Beta: 9, Index: 9, Sign: 9, Bits: []uint64{9}}
		}
		checkMatchesFrames(t, buf, 0, dirty, []int{9})
	})
}
