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
	// InpRR, InpEM and InpOLH frames, whose retired tags old WALs still
	// carry.
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01})
	f.Add([]byte{byte(TagInpHT), 0x80})
	f.Add([]byte{byte(TagInpPS), 0x01, 0x02})
	f.Add([]byte{1, 0x01, 0xef, 0xbe, 0xad, 0xde, 0, 0, 0, 0})
	f.Add([]byte{7, 0x05})
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 0x03})
	f.Fuzz(func(t *testing.T, frame []byte) {
		tag, rep, err := Unmarshal(frame)
		if err != nil {
			return
		}
		name, ok := tagProtocols[tag]
		if !ok {
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
	f.Add([]byte{0x02, 1, 0x00, 0x02, 1, 0x00})          // retired InpRR tag
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
		name, ok := tagProtocols[tag]
		if !ok {
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
	for name, rep := range corpus { // all six tags
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
	f.Add(append(batch("MargRR", corpus["MargRR"]), 0x02, 1, 0x00))                        // retired InpRR tag
	f.Add([]byte{0x02, 7, 0x05, 0x02, 7, 0x05})                                            // retired InpEM tag
	f.Add(append(batch("InpPS", ps), 0x02, 8, 0x05))                                       // retired InpOLH tag
	f.Add([]byte{})
	for _, seed := range wordPathSeeds(f) {
		f.Add(seed)
	}
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

// wordPathSeeds places unusual and malformed frames where the batch
// decoder reads frames by whole-word loads: for each of the four inline
// shapes, after 40 valid frames of the shape (indices of one to three
// bytes), once followed by 40 more (so the word loaded for it runs into
// the next frames) and once as the body's last frame (the zero-padded
// tail load).
func wordPathSeeds(t testing.TB) [][]byte {
	t.Helper()
	framed := func(body ...byte) []byte { return append([]byte{byte(len(body))}, body...) }
	var seeds [][]byte
	for _, name := range []string{"InpPS", "InpHT", "MargPS", "MargHT"} {
		tag, err := TagForProtocol(name)
		if err != nil {
			t.Fatal(err)
		}
		sh := shapeOf(tag)
		valid := make([]core.Report, 40)
		for i := range valid {
			valid[i] = core.Report{Index: uint64(i*i*i*97) % (1 << 21), Sign: int8(i%2)*2 - 1}
			if sh&shapeBeta != 0 {
				valid[i].Beta = uint64(i*i*131) % (1 << 21)
			}
		}
		run, err := MarshalBatch(name, valid)
		if err != nil {
			t.Fatal(err)
		}
		// pre and post are what surrounds the index in a frame of this
		// shape: beta 3 before it and sign +1 after, where the shape has
		// them; body is such a frame body around the given index bytes.
		var pre, post []byte
		if sh&shapeBeta != 0 {
			pre = []byte{0x03}
		}
		if sh&shapeSign != 0 {
			post = []byte{0x01}
		}
		body := func(index ...byte) []byte {
			b := append([]byte{byte(tag)}, pre...)
			return append(append(b, index...), post...)
		}
		plain := body(0x05)
		odd := [][]byte{
			framed(body(0x85, 0x00)...),                                   // non-minimal index
			framed(body(0x80, 0x80, 0x00)...),                             // non-minimal three-byte zero
			framed(body(0x80, 0x80, 0x01)...),                             // 2^14, the least three-byte index
			framed(body(0xff, 0xff, 0x7f)...),                             // 2^21 - 1, the largest
			framed(body(0x80, 0x80, 0x80, 0x01)...),                       // four-byte index
			append([]byte{0x80 | byte(len(plain)), 0x00}, plain...),       // two-byte length prefix
			framed(append(body(0x05), 0x00)...),                           // trailing byte
			framed(plain[:len(plain)-1]...),                               // last byte missing
			framed(append(append([]byte{byte(tag)}, pre...), post...)...), // index missing
			framed(append(append([]byte{byte(tag)}, pre...), 0x85)...),    // index cut short by the frame: the next frame's prefix would end it
			{byte(len(plain) + 1), byte(tag), 0x80},                       // frame body cut short
			{0x80},                                                        // length prefix cut short
			{0xff, 0xff, 0x7f},                                            // over MaxFrameBytes
			{0x00},                                                        // empty frame
			{0x01, byte(tag)},                                             // tag only
			{0x02, 0x63, 0x01},                                            // unknown tag
			append([]byte{0x81, 0x01}, make([]byte, 129)...),              // a >=128-byte frame
			{0x02, 7, 0x05},                                               // retired InpEM tag
			framed(byte(TagMargHT), 0x03, 0x05, 0x01),                     // another shape's tag
			framed(byte(TagInpPS), 0x05),                                  // and another's
		}
		if sh&shapeSign != 0 {
			odd = append(odd,
				framed(append(append([]byte{byte(tag)}, pre...), 0x05, 0x02)...), // sign byte not 0 or 1
				framed(append(append([]byte{byte(tag)}, pre...), 0x05, 0xff)...), // nor anything with the low bit
			)
		}
		if sh&shapeBeta != 0 {
			withBeta := func(beta ...byte) []byte {
				b := append([]byte{byte(tag)}, beta...)
				return framed(append(append(b, 0x05), post...)...)
			}
			odd = append(odd,
				withBeta(0x80, 0x00),             // non-minimal beta
				withBeta(0x80, 0x80, 0x80, 0x01), // four-byte beta
				withBeta(0xff, 0xff, 0x7f),       // largest three-byte beta
				framed(byte(tag), 0x03),          // beta alone
				framed(append([]byte{byte(tag), 0xff, 0xff, 0x7f, 0xff, 0xff, 0x7f}, post...)...), // three-byte beta and index: the longest inline frame
			)
		}
		for _, frame := range odd {
			mid := append(append(append([]byte(nil), run...), frame...), run...)
			last := append(append([]byte(nil), run...), frame...)
			seeds = append(seeds, mid, last)
		}
	}
	return seeds
}
