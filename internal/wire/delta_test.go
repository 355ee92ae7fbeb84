package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

const testMaxRaw = 1 << 24

// reseal recomputes the trailing CRC after a deliberate body mutation,
// so tests reach the structural validation behind the checksum.
func reseal(buf []byte) []byte {
	body := buf[:len(buf)-exchangeCRCLen]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, exchangeCRC))
}

func TestComponentFrameRoundTrip(t *testing.T) {
	compressible := bytes.Repeat([]byte{0, 0, 0, 1}, 4096)
	cases := []ComponentFrame{
		{NodeID: "edge-1", Version: 42, N: 10, Components: []StateComponent{
			{ID: "edge-1/0", Version: 7, N: 4, State: []byte{9, 8, 7}},
			{ID: "edge-1/1", Version: 9, N: 6, State: compressible},
		}},
		{NodeID: "coord-a", Version: 3, N: 0, Components: nil},
		{NodeID: "edge-1", Version: 50, Delta: true, BaseVersion: 42, N: 12, Components: []StateComponent{
			{ID: "edge-1/1", Version: 11, N: 8, State: []byte{1, 2, 3, 4}},
		}, Removed: []string{"edge-1/5", "edge-1/9"}},
		{NodeID: "root", Version: 1, Delta: true, BaseVersion: 0, N: 0,
			Removed: []string{"edge-2/0"}},
		// A component with an empty state blob (n=0 placeholder).
		{NodeID: "e", Version: 1, N: 0, Components: []StateComponent{{ID: "e/0", Version: 5}}},
	}
	for i, in := range cases {
		buf, err := EncodeComponentFrame(in)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		out, err := DecodeComponentFrame(buf, testMaxRaw)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		// Normalize nil-vs-empty state slices for the comparison.
		for j := range out.Components {
			if len(out.Components[j].State) == 0 {
				out.Components[j].State = nil
			}
		}
		norm := in
		norm.Components = append([]StateComponent(nil), in.Components...)
		for j := range norm.Components {
			if len(norm.Components[j].State) == 0 {
				norm.Components[j].State = nil
			}
		}
		if len(norm.Components) == 0 {
			norm.Components = nil
		}
		if !reflect.DeepEqual(out, norm) {
			t.Fatalf("case %d: round trip:\n got %+v\nwant %+v", i, out, norm)
		}
	}
}

func TestComponentFrameCompresses(t *testing.T) {
	// A sparse counter blob (mostly zero bytes) must ship flate-packed:
	// the whole point of the delta frame is that O(2^d) dense states with
	// few occupied cells cost little on the wire.
	state := make([]byte, 1<<16)
	for i := 0; i < len(state); i += 97 {
		state[i] = byte(i)
	}
	buf, err := EncodeComponentFrame(ComponentFrame{
		NodeID: "e", Version: 1, N: 1,
		Components: []StateComponent{{ID: "e/0", Version: 1, N: 1, State: state}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) >= len(state)/2 {
		t.Fatalf("frame of %d bytes for a %d-byte sparse state did not compress", len(buf), len(state))
	}
	out, err := DecodeComponentFrame(buf, testMaxRaw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Components[0].State, state) {
		t.Fatal("compressed state did not round-trip")
	}
}

func TestComponentFrameEncodeRejects(t *testing.T) {
	okComp := []StateComponent{{ID: "n/0", Version: 1, N: 1, State: []byte{1}}}
	cases := []struct {
		name string
		f    ComponentFrame
	}{
		{"empty node id", ComponentFrame{NodeID: "", Components: okComp}},
		{"oversized node id", ComponentFrame{NodeID: strings.Repeat("x", MaxNodeIDLen+1)}},
		{"negative n", ComponentFrame{NodeID: "n", N: -1}},
		{"negative component n", ComponentFrame{NodeID: "n", Components: []StateComponent{{ID: "n/0", N: -1}}}},
		{"empty component id", ComponentFrame{NodeID: "n", Components: []StateComponent{{ID: ""}}}},
		{"oversized component id", ComponentFrame{NodeID: "n", Components: []StateComponent{{ID: strings.Repeat("y", MaxComponentIDLen+1)}}}},
		{"unsorted components", ComponentFrame{NodeID: "n", Components: []StateComponent{{ID: "n/1"}, {ID: "n/0"}}}},
		{"duplicate components", ComponentFrame{NodeID: "n", Components: []StateComponent{{ID: "n/0"}, {ID: "n/0"}}}},
		{"unsorted removed", ComponentFrame{NodeID: "n", Delta: true, Removed: []string{"b", "a"}}},
		{"full frame with base version", ComponentFrame{NodeID: "n", BaseVersion: 3}},
		{"full frame with removals", ComponentFrame{NodeID: "n", Removed: []string{"a"}}},
		{"delta base at its version", ComponentFrame{NodeID: "n", Version: 3, Delta: true, BaseVersion: 3}},
		{"delta base above its version", ComponentFrame{NodeID: "n", Version: 3, Delta: true, BaseVersion: 4}},
	}
	for _, tc := range cases {
		if _, err := EncodeComponentFrame(tc.f); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestComponentFrameRejectsCorruption(t *testing.T) {
	buf, err := EncodeComponentFrame(ComponentFrame{
		NodeID: "edge-1", Version: 5, Delta: true, BaseVersion: 3, N: 4,
		Components: []StateComponent{
			{ID: "edge-1/0", Version: 2, N: 1, State: []byte{4, 4, 4}},
			{ID: "edge-1/2", Version: 3, N: 3, State: bytes.Repeat([]byte{0}, 512)},
		},
		Removed: []string{"edge-1/1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x10
		if _, err := DecodeComponentFrame(bad, testMaxRaw); err == nil {
			t.Fatalf("bit flip at byte %d was accepted", i)
		}
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeComponentFrame(buf[:cut], testMaxRaw); err == nil {
			t.Fatalf("truncation to %d bytes was accepted", cut)
		}
	}
}

func TestComponentFrameDecodeRejectsHostileBodies(t *testing.T) {
	// Structural attacks that survive a valid CRC: each case mutates the
	// body of a valid frame and reseals the checksum.
	base, err := EncodeComponentFrame(ComponentFrame{
		NodeID: "n", Version: 1, N: 2,
		Components: []StateComponent{{ID: "n/0", Version: 1, N: 2, State: bytes.Repeat([]byte{7}, 64)}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Shipped-and-removed overlap.
	both, err := EncodeComponentFrame(ComponentFrame{
		NodeID: "n", Version: 2, Delta: true, BaseVersion: 1, N: 2,
		Components: []StateComponent{{ID: "n/0", Version: 1, N: 2, State: []byte{1}}},
		Removed:    []string{"n/0"},
	})
	if err == nil {
		if _, err := DecodeComponentFrame(both, testMaxRaw); err == nil {
			t.Error("component both shipped and removed was accepted")
		}
	}

	// Unknown flags bit.
	bad := append([]byte(nil), base...)
	bad[len(deltaMagic)+1] |= 0x80
	if _, err := DecodeComponentFrame(reseal(bad), testMaxRaw); err == nil {
		t.Error("unknown flags were accepted")
	}

	// The sparse bit, or the unknown bit 0x04, on a component that is not
	// a diff. The encoding byte leads the component, after the frame's
	// node id, version, count and component count.
	encAt := len(deltaMagic) + 2 + (1 + len("n")) + 3
	for _, bit := range []byte{compEncRice, 0x04} {
		bad = append([]byte(nil), base...)
		if bad[encAt]&^compEncFlate != 0 {
			t.Fatalf("byte %d of the control frame is %#x, not its encoding byte", encAt, bad[encAt])
		}
		bad[encAt] |= bit
		if _, err := DecodeComponentFrameWith(reseal(bad), testMaxRaw, func(string) (ComponentBase, bool) { return ComponentBase{}, false }); err == nil {
			t.Errorf("encoding bit %#x on a whole component was accepted", bit)
		}
	}

	// Trailing bytes after a structurally complete frame.
	bad = append(append([]byte(nil), base[:len(base)-exchangeCRCLen]...), 0xAA)
	if _, err := DecodeComponentFrame(reseal(bad), testMaxRaw); err == nil {
		t.Error("trailing bytes were accepted")
	}

	// Raw budget: a frame whose declared raw state exceeds maxRaw must be
	// refused before the decoder materializes it (compression bomb).
	big, err := EncodeComponentFrame(ComponentFrame{
		NodeID: "n", Version: 1, N: 1,
		Components: []StateComponent{{ID: "n/0", Version: 1, N: 1, State: make([]byte, 4096)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeComponentFrame(big, 100); err == nil {
		t.Error("raw state over the byte budget was accepted")
	}
	if _, err := DecodeComponentFrame(base, testMaxRaw); err != nil {
		t.Fatalf("control frame rejected: %v", err)
	}

	ownBodies(t)
}

// ownBodies holds the decoder to what the encoder writes around the own
// component, on frames of node "n" at version 20 with 4 reports laid out
// by hand.
func ownBodies(t *testing.T) {
	t.Helper()
	// frame lays out a frame, a delta with the relative base rel unless
	// rel is negative, around the components' bytes.
	frame := func(rel int, comps ...[]byte) []byte {
		flags := byte(0)
		if rel >= 0 {
			flags |= deltaFlagDelta
		}
		buf := append([]byte(deltaMagic), deltaFormatVersion, flags, 1, 'n', 20)
		if rel >= 0 {
			buf = binary.AppendUvarint(buf, uint64(rel))
		}
		buf = append(buf, 4, byte(len(comps)))
		for _, c := range comps {
			buf = append(buf, c...)
		}
		if rel >= 0 {
			buf = append(buf, 0) // removed ids
		}
		return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, exchangeCRC))
	}
	state := []byte{3, 1, 4}
	// whole is a component shipped whole and raw: its encoding byte, the
	// id, version and count unless it is the own one, its state.
	whole := func(enc byte, fields ...byte) []byte {
		c := append(append([]byte{enc}, fields...), byte(len(state)))
		return append(append(c, byte(len(state))), state...)
	}
	own := whole(compEncOwn)
	spelled := whole(0, 1, 'n', 20, 4)
	// diff is the sparse diff of diffFixture (base version 5, version 8)
	// as a component: the own one at version 20, against the frame's base
	// when the frame's relative base is 15; otherwise spelled out, against
	// version 20 less verDelta.
	base, _, _, d := diffFixture()
	lookup := func(string) (ComponentBase, bool) { return base, true }
	diff := func(own bool, verDelta uint64) []byte {
		c := []byte{compEncDiff | compEncRice}
		if own {
			c[0] |= compEncOwn
		} else {
			c = append(c, 1, 'n', 20, 4)
		}
		c = binary.AppendUvarint(c, d.rawLen)
		if !own {
			c = binary.AppendUvarint(c, verDelta)
		}
		c = binary.LittleEndian.AppendUint32(c, d.sum)
		c = binary.AppendUvarint(c, d.diffLen)
		c = binary.AppendUvarint(c, uint64(len(d.payload)))
		return append(c, d.payload...)
	}

	for _, tc := range []struct {
		name   string
		frame  []byte
		accept bool
	}{
		{"own component, full frame", frame(-1, own), true},
		{"own component, delta frame", frame(10, own), true},
		{"relative base of the whole version", frame(20, own), true},
		{"relative base of zero", frame(0, own), false},
		{"relative base beyond the version", frame(21, own), false},
		{"own bit on two components", frame(-1, own, own), false},
		{"own fields spelled out", frame(-1, spelled), false},
		{"own fields spelled out, delta frame", frame(3, spelled), false},
		{"the node's id at another version", frame(-1, whole(0, 1, 'n', 19, 4)), true},
		{"another id, the frame's version and count", frame(-1, whole(0, 1, 'm', 20, 4)), true},
		{"own diff against the frame's base", frame(15, diff(true, 0)), true},
		{"own diff in a full frame", frame(-1, diff(true, 0)), false},
		{"own diff against the frame's base, spelled out", frame(15, diff(false, 15)), false},
		{"the node's diff against another base", frame(14, diff(false, 15)), true},
	} {
		out, err := DecodeComponentFrameWith(tc.frame, testMaxRaw, lookup)
		if (err == nil) != tc.accept {
			t.Errorf("%s: accepted=%v (err %v), want %v", tc.name, err == nil, err, tc.accept)
			continue
		}
		if err != nil {
			continue
		}
		// What is accepted is what the encoder writes for it.
		if again, err := EncodeComponentFrame(out); err != nil || !bytes.Equal(again, tc.frame) {
			t.Errorf("%s: re-encodes to %x (err %v), was %x", tc.name, again, err, tc.frame)
		}
	}
}

// TestComponentFrameRefusesOtherFormats: the frames of older builds,
// laid out by hand — an LDPD frame of format 1 in its default and its
// compact form, and an LDPX single-blob frame — are refused with
// ErrFrameFormat, never misread, though their checksums hold.
func TestComponentFrameRefusesOtherFormats(t *testing.T) {
	seal := func(buf []byte) []byte {
		return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, exchangeCRC))
	}
	state := []byte{3, 1, 4}
	for name, frame := range map[string][]byte{
		// Node "n" at version 20 with 4 reports, its one component "n"
		// whole and raw; the default form spells the component out with
		// its encoding byte after the count.
		"LDPD format 1": seal(append([]byte("LDPD\x01\x00\x01n\x14\x04\x01\x01n\x14\x04\x00\x03\x03"), state...)),
		// The compact form of the same frame: flags bit1, the own bit.
		"LDPD format 1, compact": seal(append([]byte("LDPD\x01\x02\x01n\x14\x04\x01\x10\x03\x03"), state...)),
		// And as a delta against version 19: base 1 below the version.
		"LDPD format 1, compact delta": seal(append(append([]byte("LDPD\x01\x03\x01n\x14\x01\x04\x01\x10\x03\x03"), state...), 0)),
		// Node "n" at version 20 with 4 reports and its state blob.
		"LDPX": seal(append([]byte("LDPX\x01\x01n\x14\x04\x03"), state...)),
	} {
		if _, err := DecodeComponentFrame(frame, testMaxRaw); !errors.Is(err, ErrFrameFormat) {
			t.Errorf("%s: error %v, want ErrFrameFormat", name, err)
		}
	}
	// The hand-laid LDPX frame is what EncodeStateFrame, kept for the
	// benchmark's ledger, writes.
	ldpx, err := EncodeStateFrame(StateFrame{NodeID: "n", Version: 20, N: 4, State: state})
	if want := seal(append([]byte("LDPX\x01\x01n\x14\x04\x03"), state...)); err != nil || !bytes.Equal(ldpx, want) {
		t.Errorf("EncodeStateFrame wrote %x (err %v), want %x", ldpx, err, want)
	}
	// The same frame in this build's format decodes.
	if _, err := DecodeComponentFrame(seal(append([]byte("LDPD\x02\x00\x01n\x14\x04\x01\x10\x03\x03"), state...)), testMaxRaw); err != nil {
		t.Errorf("format 2: %v", err)
	}
}

func TestComponentOrigin(t *testing.T) {
	cases := map[string]string{
		"edge-1/17":  "edge-1",
		"edge-1":     "edge-1",
		"a/b/c":      "a",
		"/leading":   "",
		"windowed-3": "windowed-3",
	}
	for id, want := range cases {
		if got := ComponentOrigin(id); got != want {
			t.Errorf("ComponentOrigin(%q) = %q, want %q", id, got, want)
		}
	}
}

func FuzzDecodeComponentFrame(f *testing.F) {
	full, _ := EncodeComponentFrame(ComponentFrame{
		NodeID: "edge-1", Version: 9, N: 5,
		Components: []StateComponent{
			{ID: "edge-1/0", Version: 3, N: 2, State: []byte{3, 1, 2, 7}},
			{ID: "edge-1/3", Version: 4, N: 3, State: bytes.Repeat([]byte{0, 1}, 300)},
		},
	})
	delta, _ := EncodeComponentFrame(ComponentFrame{
		NodeID: "edge-1", Version: 12, Delta: true, BaseVersion: 9, N: 6,
		Components: []StateComponent{{ID: "edge-1/0", Version: 5, N: 3, State: []byte{8}}},
		Removed:    []string{"edge-1/3"},
	})
	f.Add(full)
	f.Add(delta)
	// Diff components, honest and not: the target offers diffFixture's
	// base, so these reach the rebuild and its checks.
	// Both kinds of diff: the sparse stream (encoding 0x0a) is where a few
	// flipped bits reach the parameters, the codes, the section cursors
	// and the tail arithmetic.
	base, next, good, goodSparse := diffFixture()
	lookup := func(id string) (ComponentBase, bool) { return base, id == "e/0" || id == "e" }
	// A node's full frame, its delta whose one component is a diff against
	// the frame's base, and a coordinator's delta whose pass-through
	// components are spelled out.
	for _, cf := range []ComponentFrame{
		{NodeID: "e", Version: 8, N: 4, Components: []StateComponent{{ID: "e", Version: 8, N: 4, State: next}}},
		{NodeID: "e", Version: 8, Delta: true, BaseVersion: base.Version, N: 4,
			Components: []StateComponent{{ID: "e", Version: 8, N: 4, State: next, Base: &base}}},
		{NodeID: "c", Version: 30, Delta: true, BaseVersion: 27, N: 9,
			Components: []StateComponent{{ID: "e/0", Version: 8, N: 4, State: next, Base: &base}, {ID: "f", Version: 2, N: 5, State: []byte{1}}},
			Removed:    []string{"g"}},
	} {
		buf, err := EncodeComponentFrame(cf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	for _, good := range []diffFields{good, goodSparse} {
		f.Add(good.frame())
		for _, mutate := range []func(*diffFields){
			func(d *diffFields) { d.verDelta++ },              // another base version
			func(d *diffFields) { d.sum ^= 1 },                // wrong result checksum
			func(d *diffFields) { d.rawLen++ },                // length mismatch
			func(d *diffFields) { d.rawLen = testMaxRaw + 1 }, // over the raw budget
			func(d *diffFields) { d.rawLen = d.diffLen },      // diff not smaller than raw
			func(d *diffFields) { d.enc |= compEncFlate },     // raw payload declared deflated
			func(d *diffFields) { d.enc ^= compEncRice },      // one kind of stream under the other's bit
			func(d *diffFields) { d.payload = d.payload[:len(d.payload)-1]; d.diffLen-- },
			func(d *diffFields) { d.payload = append(d.payload[:2:2], 0xff, 0xff, 0x03); d.diffLen = 5 }, // a count, or values, of nothing
			func(d *diffFields) { d.enc = d.enc&^compEncRice | 0x04 },                                    // an unknown bit in place of the sparse one
		} {
			d := good
			mutate(&d)
			f.Add(d.frame())
		}
	}
	f.Add([]byte("LDPD"))
	f.Add([]byte{})
	// Hand-corrupted seeds: truncated compressed payload, stale base
	// version field, mangled component list length.
	if len(full) > 20 {
		f.Add(append([]byte(nil), full[:len(full)-12]...))
	}
	if len(delta) > 8 {
		d := append([]byte(nil), delta...)
		d[8] ^= 0xFF
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := DecodeComponentFrameWith(data, testMaxRaw, lookup)
		if err != nil {
			return
		}
		// Anything accepted must survive a re-encode/re-decode cycle with
		// identical logical content, in the form it came in. (Byte
		// identity is not required: a hostile frame may store a
		// compressible blob raw, or use a different flate packing, and
		// still be structurally valid.) A component that arrived as a diff
		// keeps its Base, so the re-encode takes the diff path again.
		again, err := EncodeComponentFrame(cf)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		cf2, err := DecodeComponentFrameWith(again, testMaxRaw, lookup)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if cf.NodeID != cf2.NodeID || cf.Version != cf2.Version || cf.Delta != cf2.Delta ||
			cf.BaseVersion != cf2.BaseVersion || cf.N != cf2.N ||
			len(cf.Components) != len(cf2.Components) || len(cf.Removed) != len(cf2.Removed) {
			t.Fatalf("re-decode differs:\n got %+v\nwant %+v", cf2, cf)
		}
		for i := range cf.Components {
			a, b := cf.Components[i], cf2.Components[i]
			if a.ID != b.ID || a.Version != b.Version || a.N != b.N || !bytes.Equal(a.State, b.State) {
				t.Fatalf("component %d differs after re-decode", i)
			}
		}
		for i := range cf.Removed {
			if cf.Removed[i] != cf2.Removed[i] {
				t.Fatalf("removed id %d differs after re-decode", i)
			}
		}
	})
}
