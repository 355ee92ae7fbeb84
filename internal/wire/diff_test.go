package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand/v2"
	"testing"
)

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
	}
	for name, c := range cases {
		diff, ok := diffState(c[0], c[1])
		if !ok {
			t.Errorf("%s: no diff", name)
			continue
		}
		got, err := applyDiff(c[0], diff, uint64(len(c[1])))
		if err != nil || !bytes.Equal(got, c[1]) {
			t.Errorf("%s: diff does not rebuild the blob (err %v)", name, err)
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
	}
	if _, ok := diffState([]byte{3, 1, 0x80}, good); ok {
		t.Error("diffed against a base that does not parse")
	}
}

// TestEncoderShipsTheSmallerOfDiffAndWhole pins the encoder's choice at
// every churn: a component with a base ships as a diff only when that is
// strictly smaller on the wire, as itself otherwise, and either way the
// puller ends up with the same blob.
func TestEncoderShipsTheSmallerOfDiffAndWhole(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	base := make([]uint64, 1<<14)
	for i := range base {
		base[i] = r.Uint64N(12)
	}
	baseBlob := counterBlob(base)
	sawDiff, sawWhole := false, false
	for _, churn := range []float64{0, 0.001, 0.01, 0.1, 0.5, 1} {
		next := churned(r, base, churn)
		if churn == 1 {
			// A window that emptied: the state deflates to almost nothing,
			// its difference from the base is the base all over again.
			clear(next)
		}
		whole := StateComponent{ID: "e/0", Version: 9, N: 1, State: counterBlob(next)}
		withBase := whole
		withBase.Base = &ComponentBase{Version: 7, State: baseBlob}
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
		if (out.Components[0].Base != nil) != (enc&compEncDiff != 0) {
			t.Errorf("churn %v: decoded Base does not say how the component arrived", churn)
		}
		// Decoding is the inverse of encoding, Base included.
		again, err := EncodeComponentFrame(out)
		if err != nil || !bytes.Equal(again, buf) {
			t.Errorf("churn %v: re-encoding the decoded frame gives other bytes (err %v)", churn, err)
		}
	}
	if !sawDiff || !sawWhole {
		t.Errorf("churn sweep shipped diff=%v whole=%v, want both", sawDiff, sawWhole)
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
	buf = binary.AppendUvarint(buf, d.verDelta)
	buf = binary.LittleEndian.AppendUint32(buf, d.sum)
	buf = binary.AppendUvarint(buf, d.diffLen)
	buf = binary.AppendUvarint(buf, uint64(len(d.payload)))
	buf = append(buf, d.payload...)
	buf = binary.AppendUvarint(buf, 0) // removed
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, exchangeCRC))
}

// diffFixture is a base, the blob a diff turns it into, and the fields
// of the frame that says so honestly.
func diffFixture() (base ComponentBase, next []byte, good diffFields) {
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = 1000 + uint64(i)
	}
	base = ComponentBase{Version: 5, State: counterBlob(vals)}
	vals[7]++
	vals[40] += 3
	next = counterBlob(vals)
	diff, _ := diffState(base.State, next)
	good = diffFields{
		enc: compEncDiff, ver: 8, rawLen: uint64(len(next)), verDelta: 3,
		sum: crc32.Checksum(next, exchangeCRC), diffLen: uint64(len(diff)), payload: diff,
	}
	return base, next, good
}

func TestDiffComponentRejects(t *testing.T) {
	base, next, good := diffFixture()
	lookup := func(id string) (ComponentBase, bool) { return base, id == "e/0" }
	out, err := DecodeComponentFrameWith(good.frame(), testMaxRaw, lookup)
	if err != nil || !bytes.Equal(out.Components[0].State, next) {
		t.Fatalf("control frame: %v", err)
	}

	cases := []struct {
		name     string
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
		{name: "diff not smaller than raw", mutate: func(d *diffFields) {
			// An honest diff against a base with nothing in common, on
			// values that zig-zag to more bytes than they had.
			vals := make([]uint64, 64)
			for i := range vals {
				vals[i] = 64 + uint64(i%32)
			}
			next := counterBlob(vals)
			diff, _ := diffState(nil, next)
			d.rawLen, d.sum = uint64(len(next)), crc32.Checksum(next, exchangeCRC)
			d.diffLen, d.payload = uint64(len(diff)), diff
		}},
		{name: "malformed diff value", mutate: func(d *diffFields) {
			d.payload = append(append([]byte(nil), d.payload...), 0x80)
			d.diffLen++
		}},
		{name: "diff without a header", mutate: func(d *diffFields) { d.payload, d.diffLen = []byte{3}, 1 }},
		{name: "unknown encoding bit", mutate: func(d *diffFields) { d.enc |= 0x04 }},
	}
	for _, tc := range cases {
		d := good
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
	if _, err := DecodeComponentFrame(good.frame(), testMaxRaw); err == nil {
		t.Error("DecodeComponentFrame accepted a diff component")
	}
}
