package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenLabel is a salted version label as a node exports it: the salt
// sets bit 62, so every label is nine bytes on the wire.
const goldenLabel = 1<<62 | 0x2f1c_9a3b_5d7e_1122

// goldenFrames are fixed frames of each shape the exchange ships: a
// node's full frame, a coordinator's of three pass-through components,
// a delta of whole components with a removal, and one-component deltas
// whose component ships as a dense diff (most of its counters moved by
// several reports each) and as a sparse one.
func goldenFrames() map[string]ComponentFrame {
	marg, margNext := counterShape(4, 170, 6, 0.17)
	wide, wideNext := counterShape(1, 1<<12, 32, 0.016)
	_, coefNext := coefficientShape(3, 75, 40, 1.9)
	dense, denseNext := counterShape(2, 170, 6, 4)
	own := func(ver uint64, n int, state []byte, base *ComponentBase) ComponentFrame {
		return ComponentFrame{NodeID: "single-0", Version: ver, N: n,
			Components: []StateComponent{{ID: "single-0", Version: ver, N: n, State: state, Base: base}}}
	}
	delta := func(f ComponentFrame, base uint64) ComponentFrame {
		f.Delta, f.BaseVersion = true, base
		return f
	}
	return map[string]ComponentFrame{
		"full": own(goldenLabel+40, 20480, margNext, nil),
		"full/coordinator": {NodeID: "coord", Version: goldenLabel + 7, N: 9000, Components: []StateComponent{
			{ID: "edge-0", Version: goldenLabel + 3, N: 4000, State: wideNext},
			{ID: "edge-1", Version: goldenLabel + 90, N: 3000, State: coefNext},
			{ID: "edge-2", Version: goldenLabel + 91, N: 2000, State: marg},
		}},
		"delta": {NodeID: "coord", Version: goldenLabel + 9, Delta: true, BaseVersion: goldenLabel + 7, N: 8000,
			Components: []StateComponent{{ID: "edge-1", Version: goldenLabel + 92, N: 6000, State: coefNext}},
			Removed:    []string{"edge-2"}},
		"delta/dense-diff": delta(own(goldenLabel+41, 20496, denseNext,
			&ComponentBase{Version: goldenLabel + 40, State: dense}), goldenLabel+40),
		"delta/sparse-diff": delta(own(goldenLabel+41, 20496, wideNext,
			&ComponentBase{Version: goldenLabel + 40, State: wide}), goldenLabel+40),
	}
}

// TestComponentFrameGoldenBytes pins the frame to digests recorded at
// commit eafe4b5, when it was the "compact" one of two forms, a puller
// asked for it and it was offered sparse diffs: each is the SHA-256 of
// that encoder's frame with the format byte set to 2, flags bit1 (which
// marked the compact form) cleared and the CRC recomputed, so every
// payload and header byte is that build's. Persisted peer snapshots are
// these frames. Never re-record the digests to make it pass.
//
// The diff frames also ship their component in the form the name says.
func TestComponentFrameGoldenBytes(t *testing.T) {
	want := map[string]string{
		"full":              "ab6fa1fca2111a0550232b4399e8b0ac282bd6a52d1c5afbf8345fbb805e201e",
		"full/coordinator":  "1baeffe085f197f138c76208b7ed46fc35559b99632edac69922a05f165e7d64",
		"delta":             "54848422d9610e864bd7d1a56845b1ff0b9778c348a72393c0886d49d97d4a48",
		"delta/dense-diff":  "0abc56567ea712143120975ab2ce6a0d3a5dfa873ecbb65f02065d164ad4a2bb",
		"delta/sparse-diff": "ca1998ac7ac11ad6238ce366ab7a3b06ea25d2de61ef2bca86fe96c030fe799e",
	}
	for name, f := range goldenFrames() {
		buf, err := EncodeComponentFrame(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: %d bytes, sha256 %s, want %s", name, len(buf), got, want[name])
		}
		if c := f.Components[0]; c.Base != nil {
			out, err := DecodeComponentFrameWith(buf, testMaxRaw, func(string) (ComponentBase, bool) { return *c.Base, true })
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := out.Components[0].Base; got == nil || got.Sparse != (name == "delta/sparse-diff") {
				t.Errorf("%s: the component arrived as %+v", name, got)
			}
		}
	}
}

// TestComponentFrameFormsRoundTrip: each golden frame decodes to what was
// encoded and re-encodes to the same bytes, both with its own component
// as shipped (id, version and count implied by the frame's) and with it
// spelled out, as a pass-through component is; the implied form is
// smaller by exactly the fields it leaves out, a diff's version distance
// among them.
func TestComponentFrameFormsRoundTrip(t *testing.T) {
	for name, f := range goldenFrames() {
		var lookup func(string) (ComponentBase, bool)
		if c := f.Components[0]; c.Base != nil {
			lookup = func(string) (ComponentBase, bool) { return *c.Base, true }
		}
		// spelled is f with its own component's count one off the frame's,
		// which the encoder then has to write out.
		spelled := f
		spelled.Components = append([]StateComponent(nil), f.Components...)
		saved := 0
		if c := &spelled.Components[0]; c.ID == f.NodeID {
			c.N++
			saved = uvarintLen(uint64(len(c.ID))) + len(c.ID) + uvarintLen(c.Version) + uvarintLen(uint64(c.N))
			if c.Base != nil {
				saved += uvarintLen(c.Version - c.Base.Version)
			}
		}
		var size [2]int
		for i, in := range []ComponentFrame{f, spelled} {
			buf, err := EncodeComponentFrame(in)
			if err != nil {
				t.Fatalf("%s, form %d: %v", name, i, err)
			}
			out, err := DecodeComponentFrameWith(buf, testMaxRaw, lookup)
			if err != nil {
				t.Fatalf("%s, form %d: %v", name, i, err)
			}
			if out.NodeID != in.NodeID || out.Version != in.Version || out.Delta != in.Delta || out.BaseVersion != in.BaseVersion ||
				out.N != in.N || len(out.Components) != len(in.Components) {
				t.Fatalf("%s, form %d: decoded %+v", name, i, out)
			}
			for j, c := range out.Components {
				if w := in.Components[j]; c.ID != w.ID || c.Version != w.Version || c.N != w.N || !bytes.Equal(c.State, w.State) {
					t.Fatalf("%s, form %d: component %d differs", name, i, j)
				}
			}
			if base := out.Components[0].Base; (base != nil) != (lookup != nil) {
				t.Errorf("%s, form %d: the component arrived as %+v", name, i, base)
			}
			again, err := EncodeComponentFrame(out)
			if err != nil || !bytes.Equal(again, buf) {
				t.Errorf("%s, form %d: re-encoding the decoded frame gives other bytes (err %v)", name, i, err)
			}
			size[i] = len(buf)
		}
		if size[1]-size[0] != saved {
			t.Errorf("%s: %d bytes, %d spelled out; want %d more", name, size[0], size[1], saved)
		}
	}
}

// TestCompactFrameHeaderBytes pins what a one-component delta spends
// around its payload, for the shape ingest-narrow's single node ships (a
// diff of 75 InpHT coefficients, most of them moved, nine-byte salted
// labels, a four-byte report count): the node id, one label and one
// count, 43 bytes (44 on the benchmark, whose state takes two bytes to
// declare its length).
func TestCompactFrameHeaderBytes(t *testing.T) {
	base, next := coefficientShape(3, 75, 40, 1.9)
	c := StateComponent{ID: "single-0", Version: goldenLabel + 41, N: 12288 * 256, State: next,
		Base: &ComponentBase{Version: goldenLabel + 40, State: base}}
	var pk packer
	enc, _, payload, err := pk.component(c)
	if err != nil || enc != compEncDiff|compEncRice {
		t.Fatalf("encoding %#x (err %v), want a sparse diff", enc, err)
	}
	buf, err := EncodeComponentFrame(ComponentFrame{NodeID: c.ID, Version: c.Version, Delta: true, BaseVersion: c.Base.Version,
		N: c.N, Components: []StateComponent{c}})
	if err != nil {
		t.Fatal(err)
	}
	if head := len(buf) - len(payload); head != 43 {
		t.Errorf("%d header bytes around a %d-byte payload, want 43", head, len(payload))
	}
}
