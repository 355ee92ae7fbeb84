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
// whose component ships as a dense and as a sparse diff.
func goldenFrames() map[string]ComponentFrame {
	marg, margNext := counterShape(4, 170, 6, 0.17)
	wide, wideNext := counterShape(1, 1<<12, 32, 0.016)
	coef, coefNext := coefficientShape(3, 75, 40, 1.9)
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
		"delta/dense-diff": delta(own(goldenLabel+41, 20496, coefNext,
			&ComponentBase{Version: goldenLabel + 40, State: coef}), goldenLabel+40),
		"delta/sparse-diff": delta(own(goldenLabel+41, 20496, wideNext,
			&ComponentBase{Version: goldenLabel + 40, State: wide, Sparse: true}), goldenLabel+40),
	}
}

// TestComponentFrameGoldenBytes pins the default encoding of the
// componentized frame to digests recorded before the compact form
// existed (commit b76c97a). Persisted peer snapshots are these frames,
// and a puller that does not ask for the compact form is sent them: a
// failure means both have moved. Never re-record the digests to make it
// pass.
func TestComponentFrameGoldenBytes(t *testing.T) {
	want := map[string]string{
		"full":              "2f4138b7a5d71e5ddc8be7550874833f4fd5ceee58c085d477146db720761e5e",
		"full/coordinator":  "2e076b4a176e78ac6e967a5f3783a381477c8e6f5de5d75bd7da1faacab0b5ee",
		"delta":             "136d90ec9197fe448671512ec470e5b28681038e34711f86fb9484005e60241a",
		"delta/dense-diff":  "7b7fa8bddd0d7ebce35a0026368233b05c9407bc6986695b42815ddaeadb99e8",
		"delta/sparse-diff": "ff2789e857cc72a199702df4e52f3be7c80351ba45c16df9e9b6789fe85ebdd2",
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
		// The diff frames ship what their names say.
		if c := f.Components[0]; c.Base != nil {
			out, err := DecodeComponentFrameWith(buf, testMaxRaw, func(string) (ComponentBase, bool) { return *c.Base, true })
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := out.Components[0].Base; got == nil || got.Sparse != c.Base.Sparse {
				t.Errorf("%s: the component arrived as %+v", name, got)
			}
		}
	}
}

// TestComponentFrameFormsRoundTrip: each golden frame in either form
// decodes to what was encoded, the form included, and re-encodes to the
// same bytes; the compact form is smaller by exactly the fields it
// leaves out, and a coordinator's pass-through components keep theirs.
func TestComponentFrameFormsRoundTrip(t *testing.T) {
	for name, f := range goldenFrames() {
		var lookup func(string) (ComponentBase, bool)
		if c := f.Components[0]; c.Base != nil {
			lookup = func(string) (ComponentBase, bool) { return *c.Base, true }
		}
		var size [2]int
		for i, compact := range []bool{false, true} {
			f.Compact = compact
			buf, err := EncodeComponentFrame(f)
			if err != nil {
				t.Fatalf("%s, compact=%v: %v", name, compact, err)
			}
			out, err := DecodeComponentFrameWith(buf, testMaxRaw, lookup)
			if err != nil {
				t.Fatalf("%s, compact=%v: %v", name, compact, err)
			}
			if out.Compact != compact || out.Version != f.Version || out.BaseVersion != f.BaseVersion || out.N != f.N ||
				len(out.Components) != len(f.Components) {
				t.Fatalf("%s, compact=%v: decoded %+v", name, compact, out)
			}
			for j, c := range out.Components {
				if w := f.Components[j]; c.ID != w.ID || c.Version != w.Version || c.N != w.N || !bytes.Equal(c.State, w.State) {
					t.Fatalf("%s, compact=%v: component %d differs", name, compact, j)
				}
			}
			again, err := EncodeComponentFrame(out)
			if err != nil || !bytes.Equal(again, buf) {
				t.Errorf("%s, compact=%v: re-encoding the decoded frame gives other bytes (err %v)", name, compact, err)
			}
			size[i] = len(buf)
		}
		// The own component's id, version and count, and a delta base of
		// nine bytes against one, or its diff's version distance besides.
		saved := 0
		if c := f.Components[0]; c.ID == f.NodeID {
			saved = 1 + len(c.ID) + 9 + uvarintLen(uint64(c.N))
		}
		if f.Delta {
			saved += 9 - uvarintLen(f.Version-f.BaseVersion)
			if f.Components[0].Base != nil {
				saved += uvarintLen(f.Version - f.BaseVersion)
			}
		}
		if size[0]-size[1] != saved {
			t.Errorf("%s: %d bytes, %d compact; want %d fewer", name, size[0], size[1], saved)
		}
	}
}

// TestCompactFrameHeaderBytes pins what a one-component delta spends
// around its payload, for the shape ingest-narrow's single node ships (a
// diff of 75 InpHT coefficients, most of them moved, nine-byte salted
// labels, a four-byte report count): the node id twice, three labels and
// the count twice in the default form (74 bytes here; 75 on the
// benchmark, whose state takes two bytes to declare its length); the
// node id, one label and one count in the compact one.
func TestCompactFrameHeaderBytes(t *testing.T) {
	base, next := coefficientShape(3, 75, 40, 1.9)
	c := StateComponent{ID: "single-0", Version: goldenLabel + 41, N: 12288 * 256, State: next,
		Base: &ComponentBase{Version: goldenLabel + 40, State: base, Sparse: true}}
	var pk packer
	enc, _, payload, err := pk.component(c)
	if err != nil || enc != compEncDiff|compEncRice {
		t.Fatalf("encoding %#x (err %v), want a sparse diff", enc, err)
	}
	paid := len(payload)
	for _, tc := range []struct {
		compact bool
		max     int
	}{{false, 74}, {true, 46}} {
		buf, err := EncodeComponentFrame(ComponentFrame{NodeID: c.ID, Version: c.Version, Delta: true, BaseVersion: c.Base.Version,
			N: c.N, Components: []StateComponent{c}, Compact: tc.compact})
		if err != nil {
			t.Fatal(err)
		}
		head := len(buf) - paid
		if head > tc.max || !tc.compact && head != tc.max {
			t.Errorf("compact=%v: %d header bytes around a %d-byte payload, want at most %d", tc.compact, head, paid, tc.max)
		}
		t.Logf("compact=%v: %d header bytes around a %d-byte payload", tc.compact, head, paid)
	}
}
