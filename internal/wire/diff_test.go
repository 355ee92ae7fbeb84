package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// diffStateByValue is diffState as it was before it compared eight bytes
// at a time: every value of next decoded against its base value. It is
// the reference the word-at-a-time walk is held to.
func diffStateByValue(base, next []byte) (stateDiff, bool) {
	var d stateDiff
	if len(next) < 2 {
		return d, false
	}
	copy(d.header[:], next)
	b := blobBody(base)
	gap := uint64(0)
	for n := next[2:]; len(n) > 0; d.vals++ {
		v, w := binary.Uvarint(n)
		if w <= 0 || (w > 1 && v>>(7*(w-1)) == 0) {
			return d, false
		}
		n = n[w:]
		var old uint64
		if len(b) > 0 {
			bw := 0
			if old, bw = binary.Uvarint(b); bw <= 0 {
				return d, false
			}
			b = b[bw:]
		}
		if v == old {
			gap++
			continue
		}
		d.gaps = binary.AppendUvarint(d.gaps, gap)
		d.diffs = binary.AppendUvarint(d.diffs, zigzag(int64(v-old)))
		d.moved++
		gap = 0
	}
	return d, true
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// sameWalk holds diffState to the per-value walk on one pair of blobs.
func sameWalk(t *testing.T, name string, base, next []byte) {
	t.Helper()
	d, ok := diffState(base, next)
	ref, refOK := diffStateByValue(base, next)
	if ok != refOK || (ok && !reflect.DeepEqual(d, ref)) {
		t.Errorf("%s: the word-at-a-time walk found %+v (ok %v), the per-value walk %+v (ok %v)", name, d, ok, ref, refOK)
	}
}

// counterBlob builds a state blob the way every aggregator does: a
// two-byte header, then minimal uvarints.
func counterBlob(vals []uint64) []byte {
	e := NewStateEncoder(3, 1)
	for _, v := range vals {
		e.Uvarint(v)
	}
	return e.Bytes()
}

// churned returns vals with every counter moved with probability p: up
// mostly, down sometimes (window expiry), across the whole uint64 range
// once in a while (zig-zag coefficients changing sign).
func churned(r *rand.Rand, vals []uint64, p float64) []uint64 {
	out := append([]uint64(nil), vals...)
	for i := range out {
		if r.Float64() >= p {
			continue
		}
		switch r.IntN(8) {
		case 0:
			out[i] -= min(out[i], 1+r.Uint64N(3))
		case 1:
			out[i] = r.Uint64()
		default:
			out[i] += 1 + r.Uint64N(4)
		}
	}
	return out
}

// lockstepBase and lockstepNext are 300 small counters of which two cross
// the one-byte boundary, one up and one down.
var lockstepBase, lockstepNext = func() (base, next []uint64) {
	base = make([]uint64, 300)
	for i := range base {
		base[i] = uint64(i % 100)
	}
	next = append([]uint64(nil), base...)
	base[50], next[50] = 127, 128
	base[200], next[200] = 300, 100
	return base, next
}()

// repeated is n values v.
func repeated(v uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// zerosAmong is n values, 200 and 0 in turn, with bump added to one in
// every fifty.
func zerosAmong(n int, bump uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = 200
		}
		if i%50 == 7 {
			out[i] += bump
		}
	}
	return out
}

func everyEighth(n int) []uint64 {
	out := make([]uint64, n)
	for i := 3; i < n; i += 8 {
		out[i] = 1
	}
	return out
}

func TestDiffStateRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	base := make([]uint64, 500)
	for i := range base {
		base[i] = r.Uint64N(40)
	}
	// Values at every uvarint width, against each other in both orders.
	var widths, widthsRev []uint64
	for k := 0; k < 64; k += 7 {
		widths = append(widths, 1<<k-1, 1<<k, 1<<k+1)
	}
	for i := len(widths) - 1; i >= 0; i-- {
		widthsRev = append(widthsRev, widths[i])
	}
	cases := map[string][2][]byte{
		"every width":   {counterBlob(widths), counterBlob(widthsRev)},
		"same length":   {counterBlob(base), counterBlob(churned(r, base, 0.1))},
		"unchanged":     {counterBlob(base), counterBlob(base)},
		"all moved":     {counterBlob(base), counterBlob(churned(r, base, 1))},
		"base shorter":  {counterBlob(base[:100]), counterBlob(base)},
		"base longer":   {counterBlob(base), counterBlob(base[:100])},
		"base empty":    {nil, counterBlob(base)},
		"base one byte": {{7}, counterBlob(base)},
		"other header":  {append([]byte{9, 9}, counterBlob(base)[2:]...), counterBlob(base)},
		"no counters":   {counterBlob(base), counterBlob(nil)},
		"extreme values": {counterBlob([]uint64{0, 1 << 63, ^uint64(0), 5}),
			counterBlob([]uint64{^uint64(0), 0, 1 << 63, 4})},
		// Merged counters: around the one-, two- and three-byte uvarint
		// boundaries, moving across them in both directions.
		"varint widths": {counterBlob([]uint64{126, 127, 128, 129, 16382, 16383, 16384, 16385, 200, 20000}),
			counterBlob([]uint64{128, 126, 127, 16384, 16383, 16385, 16382, 129, 20000, 200})},
		// Long runs of unmoved one-byte values around values that cross
		// 127/128 in either direction: past the first the two cursors are
		// a byte apart, past the second in step again, and the eight-byte
		// compare runs on both sides of each.
		"out of byte lockstep": {counterBlob(lockstepBase), counterBlob(lockstepNext)},
		// Two-byte uvarints, the first byte continued: equal words that are
		// not eight values.
		"words equal but continued": {counterBlob(repeated(0x81, 40)), counterBlob(repeated(0x81, 40))},
		"one moved in every eight":  {counterBlob(make([]uint64, 400)), counterBlob(everyEighth(400))},
		// Zero bytes that are values, not the ends of values written long.
		"zeros among two-byte values": {counterBlob(zerosAmong(300, 0)), counterBlob(zerosAmong(300, 1))},
	}
	for name, c := range cases {
		d, ok := diffState(c[0], c[1])
		if !ok {
			t.Errorf("%s: no diff", name)
			continue
		}
		sameWalk(t, name, c[0], c[1])
		dense, sparse := d.dense(), d.appendSparse(nil)
		if len(dense) != d.denseLen() {
			t.Errorf("%s: dense stream of %d bytes, announced as %d", name, len(dense), d.denseLen())
		}
		got, err := applyDiff(c[0], dense, uint64(len(c[1])))
		if err != nil || !bytes.Equal(got, c[1]) {
			t.Errorf("%s: dense diff does not rebuild the blob (err %v)", name, err)
		}
		got, err = applySparseDiff(c[0], sparse, uint64(len(c[1])))
		if err != nil || !bytes.Equal(got, c[1]) {
			t.Errorf("%s: sparse diff does not rebuild the blob (err %v)", name, err)
		}
	}
}

// TestSkipVarints: the eight-at-a-time count agrees with a bytewise one
// at every offset and count, over values of every width, and stops at
// the end of the n-th value, not of the word it sits in.
func TestSkipVarints(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	var vals []uint64
	for i := 0; i < 200; i++ {
		vals = append(vals, r.Uint64()>>r.UintN(64))
	}
	body := counterBlob(vals)[2:]
	for _, b := range [][]byte{body, body[:len(body)-3], append(append([]byte(nil), body...), 0x80, 0x80)} {
		for n := uint64(0); n < uint64(len(vals))+3; n++ {
			wantSize, left := 0, n
			for ; left > 0 && wantSize < len(b); wantSize++ {
				if b[wantSize] < 0x80 {
					left--
				}
			}
			if size, short := skipVarints(b, n); size != wantSize || short != left {
				t.Fatalf("skipVarints(%d bytes, %d) = %d, %d; want %d, %d", len(b), n, size, short, wantSize, left)
			}
		}
	}
}

// TestVarintFastPathsAgreeWithBinary: the spelled-out one- and two-byte
// cases read and write exactly what encoding/binary does, truncated and
// non-minimal input included.
func TestVarintFastPathsAgreeWithBinary(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 16383, 16384, 16385, 1 << 21, 1 << 63, ^uint64(0)} {
		want := binary.AppendUvarint([]byte{0xaa}, v)
		if got := appendUvarint([]byte{0xaa}, v); !bytes.Equal(got, want) {
			t.Errorf("appendUvarint(%d) = %x, want %x", v, got, want)
		}
		for _, in := range [][]byte{want[1:], want[1 : len(want)-1], append(want[1:len(want):len(want)], 0x05)} {
			gv, gw := uvarint(in)
			wv, ww := binary.Uvarint(in)
			if gv != wv || gw != ww {
				t.Errorf("uvarint(%x) = %d, %d; binary.Uvarint = %d, %d", in, gv, gw, wv, ww)
			}
		}
	}
	// Non-minimal two-byte forms decode like binary.Uvarint decodes them;
	// diffState is what refuses them.
	for _, in := range [][]byte{{0x80, 0x00}, {0x85, 0x00}, {0x80}, nil} {
		gv, gw := uvarint(in)
		wv, ww := binary.Uvarint(in)
		if gv != wv || gw != ww {
			t.Errorf("uvarint(%x) = %d, %d; binary.Uvarint = %d, %d", in, gv, gw, wv, ww)
		}
	}
}

func TestDiffStateRefusesWhatItCannotRebuild(t *testing.T) {
	good := counterBlob([]uint64{1, 2, 300})
	cases := map[string][]byte{
		"no header":          {3},
		"non-minimal varint": append(append([]byte(nil), good...), 0x80, 0x00),
		"truncated varint":   append(append([]byte(nil), good...), 0x80),
	}
	for name, next := range cases {
		if _, ok := diffState(good, next); ok {
			t.Errorf("%s: diffed a blob applyDiff cannot reproduce", name)
		}
		sameWalk(t, name, good, next)
	}
	if _, ok := diffState([]byte{3, 1, 0x80}, good); ok {
		t.Error("diffed against a base that does not parse")
	}
	// A value written long in the middle of a run that did not move, where
	// the walk is stepping over words: the same bytes on both sides, and
	// still not a blob applyDiff reproduces.
	run := counterBlob(repeated(200, 60))
	for name, long := range map[string][]byte{"two bytes": {0x80, 0x00}, "three bytes": {0x85, 0x80, 0x00}, "eleven bytes": append(bytes.Repeat([]byte{0x80}, 10), 0x01)} {
		for _, at := range []int{2 + 2*20, 2 + 2*23, 2 + 2*31} {
			blob := append(append(append([]byte(nil), run[:at]...), long...), run[at:]...)
			if _, ok := diffState(blob, blob); ok {
				t.Errorf("%s at byte %d of an unmoved run: diffed a blob applyDiff cannot reproduce", name, at)
			}
			sameWalk(t, name, blob, blob)
			sameWalk(t, name, run, blob)
		}
	}
}

// TestDiffStateMatchesPerValueWalk holds the walk that steps over unmoved
// values eight bytes at a time to the one that decodes every value, on
// random blobs: values of every width in runs of random length, a random
// share of them moved, bases shorter and longer than the state.
func TestDiffStateMatchesPerValueWalk(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	for round := range 2000 {
		vals := make([]uint64, r.IntN(400))
		for i := 0; i < len(vals); {
			width, run := r.UintN(64), 1+r.IntN(40)
			for ; run > 0 && i < len(vals); run, i = run-1, i+1 {
				vals[i] = r.Uint64() >> width >> r.UintN(3)
			}
		}
		next := append([]uint64(nil), vals...)
		for i, p := range next {
			if r.Float64() < []float64{0, 0.01, 0.1, 0.5, 1}[round%5] {
				next[i] = p + uint64(r.IntN(5)) - 2
			}
		}
		base := vals[:r.IntN(len(vals)+1)]
		if round%3 == 0 {
			base = append(vals, 5, 6, 7)
		} else if round%3 == 1 {
			base = vals
		}
		sameWalk(t, "random blobs", counterBlob(base), counterBlob(next))
	}
}

// TestEncoderShipsTheSmallerOfDiffAndWhole pins the encoder's choice at
// every churn, for a puller that decodes sparse diffs and one that does
// not: a component with a base ships as a diff only when that is
// strictly smaller on the wire, as itself otherwise, a sparse diff only
// to the puller that can read one, and either way the puller ends up
// with the same blob.
func TestEncoderShipsTheSmallerOfDiffAndWhole(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		encoderShipsTheSmaller(t, sparse)
	}
}

func encoderShipsTheSmaller(t *testing.T, sparse bool) {
	r := rand.New(rand.NewPCG(3, 4))
	base := make([]uint64, 1<<14)
	for i := range base {
		base[i] = r.Uint64N(12)
	}
	baseBlob := counterBlob(base)
	sawDiff, sawSparse, sawWhole := false, false, false
	for _, churn := range []float64{0, 0.001, 0.01, 0.1, 0.5, 1} {
		next := churned(r, base, churn)
		if churn == 1 {
			// A window that emptied: the state deflates to almost nothing,
			// its difference from the base is the base all over again.
			clear(next)
		}
		whole := StateComponent{ID: "e/0", Version: 9, N: 1, State: counterBlob(next)}
		withBase := whole
		withBase.Base = &ComponentBase{Version: 7, State: baseBlob, Sparse: sparse}
		var pk packer
		_, _, wholePayload, err := pk.component(whole)
		if err != nil {
			t.Fatal(err)
		}
		wholeLen := len(wholePayload)
		enc, head, payload, err := pk.component(withBase)
		if err != nil {
			t.Fatal(err)
		}
		shipped := len(head) + len(payload)
		if isDiff := enc&compEncDiff != 0; isDiff != (head != nil) || (isDiff && shipped >= wholeLen) || (!isDiff && shipped != wholeLen) {
			t.Errorf("churn %v: diff=%v of %d bytes against %d whole", churn, isDiff, shipped, wholeLen)
		} else if isDiff {
			sawDiff = true
		} else {
			sawWhole = true
		}
		if enc&compEncRice != 0 {
			sawSparse = true
			if !sparse || enc != compEncDiff|compEncRice {
				t.Errorf("churn %v: encoding %#x for a puller with sparse=%v", churn, enc, sparse)
			}
		}

		buf, err := EncodeComponentFrame(ComponentFrame{NodeID: "e", Version: 9, Delta: true, BaseVersion: 7, N: 1,
			Components: []StateComponent{withBase}})
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeComponentFrameWith(buf, testMaxRaw, func(string) (ComponentBase, bool) { return *withBase.Base, true })
		if err != nil {
			t.Fatalf("churn %v: %v", churn, err)
		}
		if !bytes.Equal(out.Components[0].State, whole.State) {
			t.Fatalf("churn %v: decoded state differs", churn)
		}
		if got := out.Components[0].Base; (got != nil) != (enc&compEncDiff != 0) || (got != nil && got.Sparse != (enc&compEncRice != 0)) {
			t.Errorf("churn %v: decoded Base does not say how the component arrived", churn)
		}
		// Decoding is the inverse of encoding, Base included.
		again, err := EncodeComponentFrame(out)
		if err != nil || !bytes.Equal(again, buf) {
			t.Errorf("churn %v: re-encoding the decoded frame gives other bytes (err %v)", churn, err)
		}
	}
	if !sawDiff || !sawWhole || sawSparse != sparse {
		t.Errorf("churn sweep shipped diff=%v sparse=%v whole=%v, want both and sparse=%v", sawDiff, sawSparse, sawWhole, sparse)
	}
}

// TestSmallDiffShipsWithoutComparing pins the one place the encoder
// does not pick the smaller payload: a diff under 1/diffCertain of the
// raw state ships without the whole state being packed to compare, even
// on a state empty enough that the whole would have been a few bytes
// smaller. What the rule can cost is bounded by that share of a state
// that deflates to next to nothing.
func TestSmallDiffShipsWithoutComparing(t *testing.T) {
	base := make([]uint64, 1<<14)
	next := append([]uint64(nil), base...)
	next[5], next[900], next[16000] = 1, 1, 2
	c := StateComponent{ID: "e", Version: 2, N: 4, State: counterBlob(next),
		Base: &ComponentBase{Version: 1, State: counterBlob(base)}}
	var pk packer
	enc, head, payload, err := pk.component(c)
	if err != nil {
		t.Fatal(err)
	}
	if enc&compEncDiff == 0 || len(head)+len(payload) >= len(c.State)/diffCertain {
		t.Fatalf("enc %#x, %d bytes for a %d-byte state: want a diff under 1/%d of it", enc, len(head)+len(payload), len(c.State), diffCertain)
	}
	buf, err := EncodeComponentFrame(ComponentFrame{NodeID: "e", Version: 2, Delta: true, BaseVersion: 1, N: 4, Components: []StateComponent{c}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeComponentFrameWith(buf, testMaxRaw, func(string) (ComponentBase, bool) { return *c.Base, true })
	if err != nil || !bytes.Equal(out.Components[0].State, c.State) {
		t.Fatalf("decoded state differs (err %v)", err)
	}
}

// TestPackPicksTheSmallerDeflate: Poisson-like small counters are where
// BestSpeed's spurious matches lose to plain Huffman coding; the payload
// must be no larger than either, and still inflate.
func TestPackPicksTheSmallerDeflate(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	vals := make([]uint64, 1<<15)
	for i := range vals {
		for k := 0; k < 8; k++ {
			vals[i] += r.Uint64N(2)
		}
	}
	raw := counterBlob(vals)
	var pk packer
	payload, deflated, err := pk.pack(raw)
	if err != nil || !deflated {
		t.Fatalf("pack: deflated=%v err=%v", deflated, err)
	}
	fast, huff := pk.out[0].Len(), pk.out[1].Len()
	if huff >= fast {
		t.Fatalf("HuffmanOnly (%d bytes) did not beat BestSpeed (%d) on small counters: the input no longer tests the choice", huff, fast)
	}
	if len(payload) != huff {
		t.Fatalf("payload of %d bytes; BestSpeed %d, HuffmanOnly %d", len(payload), fast, huff)
	}
	got, err := unpack(payload, true, uint64(len(raw)))
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("payload does not inflate back (err %v)", err)
	}
}

// diffFields are the fields of a one-component delta frame whose
// component ships as a diff, for building hostile variants by hand.
type diffFields struct {
	enc      byte
	ver      uint64
	rawLen   uint64
	verDelta uint64
	sum      uint32
	diffLen  uint64
	payload  []byte
}

// frame lays the fields out as the encoder does; a component whose
// encoding byte lacks the diff bit has no diff fields.
func (d diffFields) frame() []byte {
	buf := append([]byte(deltaMagic), deltaFormatVersion, deltaFlagDelta)
	buf = binary.AppendUvarint(buf, 1)
	buf = append(buf, 'e')
	buf = binary.AppendUvarint(buf, 20) // frame version
	buf = binary.AppendUvarint(buf, 10) // base version
	buf = binary.AppendUvarint(buf, 4)  // n
	buf = binary.AppendUvarint(buf, 1)  // components
	buf = binary.AppendUvarint(buf, 3)
	buf = append(buf, "e/0"...)
	buf = binary.AppendUvarint(buf, d.ver)
	buf = binary.AppendUvarint(buf, 4)
	buf = append(buf, d.enc)
	buf = binary.AppendUvarint(buf, d.rawLen)
	if d.enc&compEncDiff != 0 {
		buf = binary.AppendUvarint(buf, d.verDelta)
		buf = binary.LittleEndian.AppendUint32(buf, d.sum)
		buf = binary.AppendUvarint(buf, d.diffLen)
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.payload)))
	buf = append(buf, d.payload...)
	buf = binary.AppendUvarint(buf, 0) // removed
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, exchangeCRC))
}

// diffFixture is a base, the blob a diff turns it into, and the fields
// of the frames that say so honestly, as a dense diff and as a sparse
// one.
func diffFixture() (base ComponentBase, next []byte, good, goodSparse diffFields) {
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = 1000 + uint64(i)
	}
	base = ComponentBase{Version: 5, State: counterBlob(vals)}
	vals[7]++
	vals[40] += 3
	next = counterBlob(vals)
	d, _ := diffState(base.State, next)
	good = diffFields{
		enc: compEncDiff, ver: 8, rawLen: uint64(len(next)), verDelta: 3,
		sum: crc32.Checksum(next, exchangeCRC), diffLen: uint64(d.denseLen()), payload: d.dense(),
	}
	goodSparse = good
	goodSparse.enc |= compEncRice
	goodSparse.payload = d.appendSparse(nil)
	goodSparse.diffLen = uint64(len(goodSparse.payload))
	return base, next, good, goodSparse
}

func TestDiffComponentRejects(t *testing.T) {
	base, next, good, goodSparse := diffFixture()
	lookup := func(id string) (ComponentBase, bool) { return base, id == "e/0" }
	for _, control := range []diffFields{good, goodSparse} {
		out, err := DecodeComponentFrameWith(control.frame(), testMaxRaw, lookup)
		if err != nil || !bytes.Equal(out.Components[0].State, next) {
			t.Fatalf("control frame (encoding %#x): %v", control.enc, err)
		}
		if got := out.Components[0].Base; got == nil || got.Sparse != (control.enc&compEncRice != 0) {
			t.Fatalf("control frame (encoding %#x): decoded Base %+v does not say how it arrived", control.enc, got)
		}
	}
	// The sparse fixture's stream: header, m = 2, gaps 7 and 32 under the
	// parameter 3 (12 bits, as under 4), then the differences +1 and +3
	// less one, plain under the parameter 1: 31 bits and a zero pad bit.
	honest := func(w *bitWriter) {
		w.put(3, 6)
		w.rice(7, 3)
		w.rice(32, 3)
		w.put(0, 1)
		w.put(1, 6)
		w.rice(zigzag(+1)-1, 1)
		w.rice(zigzag(+3)-1, 1)
	}
	sparseStream := func(m uint64, write func(*bitWriter)) []byte {
		w := bitWriter{out: binary.AppendUvarint(append([]byte(nil), next[:2]...), m)}
		write(&w)
		return w.flush()
	}
	if want := sparseStream(2, honest); !bytes.Equal(goodSparse.payload, want) || len(want) != 2+1+4 {
		t.Fatalf("sparse fixture stream %x, want %x", goodSparse.payload, want)
	}
	// stream swaps the sparse fixture's stream for another.
	stream := func(m uint64, write func(*bitWriter)) func(*diffFields) {
		return func(d *diffFields) {
			d.payload = sparseStream(m, write)
			d.diffLen = uint64(len(d.payload))
		}
	}
	// The same two differences in the run form: +1 is the mode, +3 the
	// one value beside it, after a run of one.
	runForm := func(mode, others uint64, rest func(*bitWriter)) func(*bitWriter) {
		return func(w *bitWriter) {
			w.put(3, 6)
			w.rice(7, 3)
			w.rice(32, 3)
			w.put(1, 1)
			w.rice(mode, 0)
			w.rice(others, 0)
			rest(w)
		}
	}
	oneRun := func(run, other uint64) func(*bitWriter) {
		return func(w *bitWriter) {
			w.put(0, 6)
			w.rice(run, 0)
			w.put(2, 6)
			w.rice(other, 2)
		}
	}
	// The run form is a stream the decoder reads, if not the one the
	// encoder picks for two differences.
	runFixture := goodSparse
	stream(2, runForm(zigzag(+1)-1, 1, oneRun(1, zigzag(+3)-2)))(&runFixture)
	if out, err := DecodeComponentFrameWith(runFixture.frame(), testMaxRaw, lookup); err != nil || !bytes.Equal(out.Components[0].State, next) {
		t.Fatalf("run-form control frame: %v", err)
	}
	// payload edits a copy of the stream and keeps the declared length true.
	payload := func(edit func([]byte) []byte) func(*diffFields) {
		return func(d *diffFields) {
			d.payload = edit(append([]byte(nil), d.payload...))
			d.diffLen = uint64(len(d.payload))
		}
	}
	// unrelated is an honest diff against a base with nothing in common,
	// on values that zig-zag to more bytes than they had.
	unrelated := func(d *diffFields) {
		vals := make([]uint64, 64)
		for i := range vals {
			vals[i] = 64 + uint64(i%32)
		}
		next := counterBlob(vals)
		diff, _ := diffState(nil, next)
		d.rawLen, d.sum = uint64(len(next)), crc32.Checksum(next, exchangeCRC)
		if d.enc&compEncRice != 0 {
			// Nothing smaller than the state can be made of it bit-packed:
			// the stream is the dense one, under a bit that says otherwise.
			d.diffLen, d.payload = uint64(len(next)), next
		} else {
			d.diffLen, d.payload = uint64(diff.denseLen()), diff.dense()
		}
	}

	cases := []struct {
		name     string
		sparse   bool // start from the sparse frame, not the dense one
		mutate   func(*diffFields)
		lookup   func(string) (ComponentBase, bool)
		noLookup bool // decode as a puller that did not ask for diffs
		maxRaw   int64
		wantBase bool // the error must wrap ErrDiffBase
	}{
		{name: "no base supplied", noLookup: true},
		{name: "base not held", lookup: func(string) (ComponentBase, bool) { return ComponentBase{}, false }, wantBase: true},
		{name: "wrong base version", mutate: func(d *diffFields) { d.verDelta = 2 }, wantBase: true},
		{name: "wrong result checksum", mutate: func(d *diffFields) { d.sum++ }, wantBase: true},
		{name: "other blob at the base version", lookup: func(string) (ComponentBase, bool) {
			return ComponentBase{Version: base.Version, State: counterBlob(make([]uint64, 64))}, true
		}, wantBase: true},
		{name: "result longer than declared", mutate: func(d *diffFields) { d.rawLen-- }, wantBase: true},
		{name: "result shorter than declared", mutate: func(d *diffFields) { d.rawLen++ }, wantBase: true},
		{name: "raw diff length mismatch", mutate: func(d *diffFields) { d.diffLen++ }},
		{name: "result over the byte budget", maxRaw: int64(good.rawLen) - 1},
		{name: "diff over the byte budget", maxRaw: int64(good.rawLen+good.diffLen) - 1},
		{name: "declared length overflows the budget", mutate: func(d *diffFields) { d.rawLen = 1 << 63 }},
		{name: "diff not smaller than raw", mutate: unrelated},
		{name: "malformed diff value", mutate: payload(func(p []byte) []byte { return append(p, 0x80) })},
		{name: "diff without a header", mutate: func(d *diffFields) { d.payload, d.diffLen = []byte{3}, 1 }},
		{name: "unknown encoding bit", mutate: func(d *diffFields) { d.enc |= 0x10 }},
		// 0x04 was the sparse diff of the build before this one: a peer
		// still sending it was not asked to, and is not understood.
		{name: "retired encoding bit", mutate: func(d *diffFields) { d.enc |= 0x04 }},
		{name: "retired encoding bit on the sparse stream", sparse: true, mutate: func(d *diffFields) { d.enc = compEncDiff | 0x04 }},

		// The same ladder under the sparse bit, then what only a sparse
		// stream can get wrong.
		{name: "sparse: no base supplied", sparse: true, noLookup: true},
		{name: "sparse: wrong base version", sparse: true, mutate: func(d *diffFields) { d.verDelta = 2 }, wantBase: true},
		{name: "sparse: wrong result checksum", sparse: true, mutate: func(d *diffFields) { d.sum++ }, wantBase: true},
		{name: "sparse: other blob at the base version", sparse: true, lookup: func(string) (ComponentBase, bool) {
			return ComponentBase{Version: base.Version, State: counterBlob(make([]uint64, 64))}, true
		}, wantBase: true},
		{name: "sparse: result longer than declared", sparse: true, mutate: func(d *diffFields) { d.rawLen-- }, wantBase: true},
		{name: "sparse: result shorter than declared", sparse: true, mutate: func(d *diffFields) { d.rawLen++ }, wantBase: true},
		{name: "sparse: raw diff length mismatch", sparse: true, mutate: func(d *diffFields) { d.diffLen++ }},
		{name: "sparse: result over the byte budget", sparse: true, maxRaw: int64(goodSparse.rawLen) - 1},
		{name: "sparse: diff over the byte budget", sparse: true, maxRaw: int64(goodSparse.rawLen+goodSparse.diffLen) - 1},
		{name: "sparse: declared length overflows the budget", sparse: true, mutate: func(d *diffFields) { d.rawLen = 1 << 63 }},
		{name: "sparse: diff not smaller than raw", sparse: true, mutate: unrelated},
		{name: "sparse: diff without a header", sparse: true, mutate: func(d *diffFields) { d.payload, d.diffLen = []byte{3}, 1 }},
		{name: "sparse bit without the diff bit", mutate: func(d *diffFields) {
			// Otherwise an honest whole component.
			d.enc, d.payload = compEncRice, next
		}},
		{name: "sparse bit with the flate bit", sparse: true, mutate: func(d *diffFields) { d.enc |= compEncFlate }},
		{name: "sparse: count runs off the stream", sparse: true, mutate: payload(func(p []byte) []byte { return p[:2] })},
		{name: "sparse: count overflows", sparse: true, mutate: payload(func(p []byte) []byte {
			return append(append(p[:2:2], bytes.Repeat([]byte{0xff}, 10)...), p[3:]...)
		})},
		{name: "sparse: a difference more than the stream holds", sparse: true, mutate: stream(3, honest)},
		{name: "sparse: more differences than bits", sparse: true, mutate: stream(33, honest)},
		{name: "sparse: more differences than the state has bytes", sparse: true, mutate: func(d *diffFields) {
			d.rawLen = 3
		}},
		{name: "sparse: count of 2^62", sparse: true, mutate: stream(1<<62, honest)},
		{name: "sparse: no differences, bits all the same", sparse: true, mutate: stream(0, honest)},
		{name: "sparse: gap past the end of the state", sparse: true, mutate: stream(2, func(w *bitWriter) {
			w.put(3, 6)
			w.rice(7, 3)
			w.rice(100, 3)
			w.put(0, 1)
			w.put(1, 6)
			w.rice(1, 1)
			w.rice(5, 1)
		}), wantBase: true},
		{name: "sparse: gap of 2^63", sparse: true, mutate: stream(2, func(w *bitWriter) {
			w.put(3, 6)
			w.rice(7, 3)
			w.rice(1<<63, 3)
			w.put(0, 1)
			w.put(1, 6)
			w.rice(1, 1)
			w.rice(5, 1)
		}), wantBase: true},
		{name: "sparse: gap parameter out of range", sparse: true, mutate: stream(2, func(w *bitWriter) {
			w.put(riceParamMax+1, 6)
			w.rice(7, riceParamMax+1)
			w.rice(32, riceParamMax+1)
			w.put(0, 1)
			w.put(1, 6)
			w.rice(1, 1)
			w.rice(5, 1)
		})},
		{name: "sparse: value parameter out of range", sparse: true, mutate: stream(2, func(w *bitWriter) {
			w.put(3, 6)
			w.rice(7, 3)
			w.rice(32, 3)
			w.put(0, 1)
			w.put(63, 6)
			w.rice(1, 63)
			w.rice(5, 63)
		})},
		{name: "sparse: escape for a gap that did not need one", sparse: true, mutate: stream(2, func(w *bitWriter) {
			w.put(3, 6)
			w.rice(7, 3)
			w.put(1<<riceEscape-1, riceEscape) // 32 = 1<<5 | 0, the long way
			w.put(5, 6)
			w.put(0, 5)
			w.put(0, 1)
			w.put(1, 6)
			w.rice(1, 1)
			w.rice(5, 1)
		})},
		{name: "sparse: unary run with no end", sparse: true, mutate: payload(func(p []byte) []byte {
			return append(p[:3:3], bytes.Repeat([]byte{0xff}, 40)...)
		})},
		// A difference of zero has no code: the values are written less
		// one, and the one code that wraps back to it is refused.
		{name: "sparse: difference that wraps to zero", sparse: true, mutate: stream(2, func(w *bitWriter) {
			w.put(3, 6)
			w.rice(7, 3)
			w.rice(32, 3)
			w.put(0, 1)
			w.put(1, 6)
			w.rice(1, 1)
			w.rice(math.MaxUint64, 1)
		})},
		{name: "sparse: value stream truncated", sparse: true, mutate: payload(func(p []byte) []byte { return p[:len(p)-1] })},
		{name: "sparse: pad bit set", sparse: true, mutate: payload(func(p []byte) []byte { p[len(p)-1] |= 0x80; return p })},
		{name: "sparse: bytes after the last difference", sparse: true, mutate: payload(func(p []byte) []byte { return append(p, 0) })},
		{name: "sparse: more values beside the mode than values", sparse: true, mutate: stream(2, runForm(1, 3, oneRun(1, 4)))},
		{name: "sparse: runs longer than the values", sparse: true, mutate: stream(2, runForm(1, 1, oneRun(2, 4)))},
		{name: "sparse: mode that wraps to a zero difference", sparse: true, mutate: stream(2, runForm(math.MaxUint64, 1, oneRun(1, 4)))},
		{name: "sparse: value beside the mode that wraps", sparse: true, mutate: stream(2, runForm(1, 1, oneRun(1, math.MaxUint64)))},
		{name: "sparse stream under the dense bit", sparse: true, mutate: func(d *diffFields) { d.enc &^= compEncRice }, wantBase: true},
		{name: "dense stream under the sparse bit", mutate: func(d *diffFields) { d.enc |= compEncRice }},
	}
	for _, tc := range cases {
		d := good
		if tc.sparse {
			d = goodSparse
		}
		if tc.mutate != nil {
			tc.mutate(&d)
		}
		lk := lookup
		if tc.lookup != nil || tc.noLookup {
			lk = tc.lookup
		}
		maxRaw := int64(testMaxRaw)
		if tc.maxRaw != 0 {
			maxRaw = tc.maxRaw
		}
		_, err := DecodeComponentFrameWith(d.frame(), maxRaw, lk)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if errors.Is(err, ErrDiffBase) != tc.wantBase {
			t.Errorf("%s: error %q, wraps ErrDiffBase = %v, want %v", tc.name, err, !tc.wantBase, tc.wantBase)
		}
	}
	for _, control := range []diffFields{good, goodSparse} {
		if _, err := DecodeComponentFrame(control.frame(), testMaxRaw); err == nil {
			t.Errorf("DecodeComponentFrame accepted a diff component (encoding %#x)", control.enc)
		}
	}
}
